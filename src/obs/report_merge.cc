#include "obs/report_merge.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/report_page.h"

namespace memstream::obs {

namespace {

using Type = JsonValue::Type;
using page::At;
using page::Cat;
using page::Element;
using page::FormatDouble;
using page::Int;
using page::IsBlock;
using page::Items;
using page::Make;
using page::Num;
using page::Page;
using page::Part;
using page::Str;
using page::Truthy;
using enum page::Kind;
using enum page::Style;
using enum page::Only;

constexpr char kDashboardCss[] =
    ".warn{color:#9a3b00;background:#fff4e8;padding:.4em .8em;"
    "border-left:3px solid #e08030}\n"
    ".ok{color:#1a6b2f}\n.bad{color:#b01818;font-weight:600}\n"
    ".src{color:#5a6b7a;font-size:12px}\n";
constexpr char kDiffCss[] =
    "tr.sig td{background:#fff4e8;font-weight:600}\n"
    ".src{color:#5a6b7a;font-size:12px}\n.ok{color:#1a6b2f}\n";

// --- the presentation table ---

/// The one array of a block that --diff compares entry by entry, under
/// keys prefix + entry[id] + "." + leaf (or prefix + entry[id] when one
/// `leaf` is named).
struct KeyedArray {
  const char* member = nullptr;  ///< "" = the block itself
  const char* id = nullptr;
  const char* prefix = "";
  const char* keys = "";  ///< entry key order
  const char* leaf = nullptr;
};

/// One report block: how it renders, and which numeric leaves --diff
/// compares (`keys` first, then undeclared leaves in key order).
struct Block {
  const char* key;  ///< member of the run document; "" = the document
  std::vector<Part> parts = {};
  const char* keys = "";
  KeyedArray keyed = {};
  bool elide = false;  ///< cap insignificant --diff rows (metrics)
};

bool AffectedStream(const JsonValue& e) {
  return e.Num("sheds", 0) > 0 || e.Num("degrades", 0) > 0 ||
         e.Num("underflows", 0) > 0 || e.Num("headroom", 1.0) < 0.05;
}

// clang-format off
/// The blocks of one run, in render and --diff order. A run's scope also
/// holds "$path", "$title" and "$deltas" (analytic vs simulated rows).
const std::vector<Block> kRunBlocks = {
  {.key = "", .parts = {
    {.md = "source: `{$path}` (schema v{schema_version:d})", .only = kMd},
    {.md = "{$path} · schema v{schema_version:d}", .style = kSrc,
     .when = "!qos", .only = kHtml},
    {.md = "{$path} · schema v{schema_version:d} · <span class=\""
           "{qos.total_violations?bad:ok}\">{qos.total_violations:d} QoS "
           "violation(s)</span> over {qos.disk_cycles_audited:d} disk + "
           "{qos.mems_cycles_audited:d} MEMS cycles",
     .style = kSrc, .when = "qos", .only = kHtml},
    {.kind = kWarn,
     .md = "trace ring buffer dropped {trace_dropped_records:d} records",
     .when = "trace_dropped_records", .only = kHtml}}},
  {.key = "config", .parts = {{.kind = kKv}}},
  {.key = "analytic"},
  {.key = "simulated"},
  {.key = "", .parts = {
    {.kind = kHeading, .md = "Analytic vs simulated", .when = "$deltas"},
    {.kind = kTable, .rows = "$deltas", .columns = {{"key", "{key}"},
      {"analytic", "{analytic}"}, {"simulated", "{simulated}"},
      {"delta", "{delta}"}, {"rel", "{rel}"}}}}},
  {.key = "qos", .parts = {
    {.md = "QoS: {total_violations:d} violation(s) over "
           "{disk_cycles_audited:d} disk + {mems_cycles_audited:d} MEMS "
           "audited cycles", .only = kMd}},
   .keys = "total_violations disk_cycles_audited mems_cycles_audited"},
  {.key = "faults", .parts = {
    {.kind = kHeading, .md = "Faults"},
    {.md = "{events:d} fault(s), {repairs:d} repair(s), {replans:d} "
           "re-plan(s); {sheds:d} stream(s) shed ({readmits:d} "
           "re-admitted, {total_shed_time} s total shed time)",
     .html = "{events:d} fault(s), {repairs:d} repair(s), {replans:d} "
             "re-plan(s); <span class=\"{sheds?bad:ok}\">{sheds:d} "
             "stream(s) shed</span> ({readmits:d} re-admitted, "
             "{total_shed_time} s total shed time)"},
    {.kind = kWarn, .md = "trace dropped {dropped_during_burst:d} records "
                          "during fault bursts",
     .when = "dropped_during_burst"},
    {.kind = kTable, .rows = "timeline", .columns = {{"t (s)", "{time}"},
      {"fault", "{kind}"}, {"device", "{device:d}"},
      {"magnitude", "{magnitude}"}, {"action", "{action}"}}},
    {.kind = kTable, .rows = "shed_streams", .columns = {
      {"shed stream", "{stream_id:d}"}, {"shed at (s)", "{shed_time}"},
      {"cycle", "{shed_cycle:d}"},
      {"re-admitted at (s)", "{readmit_time|never}"}}}},
   .keys = "events repairs replans sheds readmits total_shed_time"},
  {.key = "farm", .parts = {
    {.kind = kHeading, .md = "Farm"},
    {.md = "{policy} placement over {shards:d} shard(s), {titles:d} "
           "title(s) ({total_copies:d} placed copies): {admitted:d}/"
           "{offered:d} stream(s) admitted ({rejected:d} rejected); "
           "{failovers:d} failover(s), {shed:d} shed, {readmits:d} "
           "re-admit(s); availability {availability}, peak DRAM/shard "
           "{peak_dram_per_shard} B, mean util {mean_utilization}",
     .html = "{policy} placement over {shards:d} shard(s), {titles:d} "
             "title(s) ({total_copies:d} placed copies): {admitted:d}/"
             "{offered:d} admitted ({rejected:d} rejected); <span class=\""
             "{shed?bad:ok}\">{failovers:d} failover(s), {shed:d} "
             "shed</span>, {readmits:d} re-admit(s); availability "
             "{availability}, peak DRAM/shard {peak_dram_per_shard} B, "
             "mean util {mean_utilization}"},
    {.kind = kTable, .rows = "per_shard", .columns = {
      {"shard", "{shard:d}"}, {"streams", "{streams:d}"}, {"ios", "{ios:d}"},
      {"underflows", "{underflow_events:d}"},
      {"overruns", "{cycle_overruns:d}"},
      {"violations", "{qos_violations:d}"},
      {"failed-over in", "{failed_over_in:d}"}, {"shed", "{shed:d}"},
      {"peak DRAM (B)", "{peak_dram_bytes}"}, {"util", "{utilization}"}}}},
   .keys = "shards total_copies offered admitted rejected failovers shed "
           "readmits availability peak_dram_per_shard mean_utilization",
   .keyed = {"per_shard", "shard", "shard",
             "streams ios underflow_events peak_dram_bytes utilization"}},
  {.key = "streams", .parts = {
    {.kind = kHeading, .md = "Streams"},
    {.md = "{count:d} stream(s): {shed:d} shed ({readmitted:d} "
           "re-admitted, {still_shed:d} still shed at end), {degraded:d} "
           "degraded, {underflow_streams:d} with underflows; min envelope "
           "headroom {min_headroom}",
     .html = "{count:d} stream(s): <span class=\"{shed?bad:ok}\">{shed:d} "
             "shed</span> ({readmitted:d} re-admitted, {still_shed:d} "
             "still shed), {degraded:d} degraded, {underflow_streams:d} "
             "with underflows; min envelope headroom {min_headroom}"},
    // Only the affected rows; clean steady-state streams stay in the JSON.
    {.kind = kTable, .rows = "per_stream", .columns = {
      {"stream", "{id:d}"}, {"phase", "{phase}"}, {"ios", "{ios:d}"},
      {"underflows", "{underflows:d}"}, {"sheds", "{sheds:d}"},
      {"readmits", "{readmits:d}"}, {"degrades", "{degrades:d}"},
      {"headroom", "{headroom}"}},
     .keep = AffectedStream, .cap = 20,
     .more = "{more:d} more affected stream(s) in the JSON"}},
   .keys = "count shed readmitted still_shed degraded underflow_streams "
           "total_underflows min_headroom"},
  {.key = "slo", .parts = {
    {.kind = kHeading, .md = "SLOs"},
    {.md = "All error budgets healthy.", .style = kOk, .when = "healthy"},
    {.md = "At least one error budget exhausted.", .style = kBad,
     .when = "!healthy"},
    {.kind = kTable, .rows = "slos", .columns = {
      {"slo", "{name}{exhausted? ⚠:}", "{name}", "exhausted"},
      {"objective", "{objective}"}, {"good", "{good:d}"},
      {"bad", "{bad:d}"}, {"attainment", "{attainment}"},
      {"budget left", "{budget_remaining}"}, {"burn rate", "{burn_rate}"}}}},
   .keyed = {"slos", "name", "", "attainment budget_remaining burn_rate"}},
  {.key = "", .parts = {
    {.kind = kWarn,
     .md = "trace ring buffer dropped {trace_dropped_records:d} records",
     .when = "trace_dropped_records", .only = kMd}}},
  {.key = "timelines", .parts = {
    {.kind = kHeading, .md = "Timelines", .only = kHtml},
    {.kind = kTable, .only = kHtml, .columns = {{"series", "{name}"},
      {"unit", "{unit}"}, {"points", "{points:n}"},
      {"shape", "{points:spark=240x36}"}}}}},
  {.key = "metrics", .keyed = {"", "name", "", "", "value"}, .elide = true},
};

/// The bundle-wide sections after the runs, over BundleRows().
const std::vector<Part> kBundleParts = {
  {.kind = kHeading, .md = "Violations"},
  {.md = "No QoS violations recorded.", .style = kOk, .when = "!violations"},
  {.kind = kTable, .rows = "violations", .columns = {{"run", "{source}"},
    {"invariant", "{invariant}", nullptr, "invariant"},
    {"stream", "{stream_id:d}"}, {"cycle", "{cycle_index:d}"},
    {"t (s)", "{time}"}, {"expected", "{expected}"},
    {"observed", "{observed}"}, {"detail", "{detail}"},
    {"trace idx", "{trace_index:d}", nullptr, nullptr, kHtml}}},
  {.kind = kHeading, .md = "Slack percentiles"},
  {.md = "No slack histograms found.", .style = kSrc, .when = "!slack"},
  {.kind = kTable, .rows = "slack", .columns = {{"source", "{source}"},
    {"metric", "{name}"}, {"count", "{count:d}"}, {"min", "{min}"},
    {"p50", "{p50}"}, {"p95", "{p95}"}, {"p99", "{p99}"},
    {"max", "{max}"}}}};
// clang-format on

const Block* Declared(const std::string& key) {
  for (const Block& b : kRunBlocks) {
    if (key == b.key) return &b;
  }
  return nullptr;
}

/// "$path", "$title" and "$deltas": simulated - analytic rows for the
/// keys both blocks carry.
JsonValue RunMeta(const ReportRun& run) {
  JsonValue meta = Make(Type::kObject);
  meta.object = {{"$path", Str(run.path)}, {"$title", Str(run.title)}};
  JsonValue& deltas = meta.object["$deltas"] = Make(Type::kArray);
  const JsonValue* analytic = run.doc.Find("analytic");
  const JsonValue* simulated = run.doc.Find("simulated");
  if (analytic == nullptr || simulated == nullptr) return meta;
  for (const auto& [key, a] : analytic->object) {
    const JsonValue* s = simulated->Find(key);
    if (s == nullptr) continue;
    const double delta = s->number - a.number;
    const double rel = a.number != 0 ? delta / std::abs(a.number) : 0;
    JsonValue& row = deltas.array.emplace_back(Make(Type::kObject));
    row.object = {{"key", Str(key)},          {"analytic", Num(a.number)},
                  {"simulated", Num(s->number)}, {"delta", Num(delta)},
                  {"rel", Num(rel)}};
  }
  return meta;
}

/// The bundle-wide rows: every run's "violations" and every slack
/// histogram ("slack"; runs, then metrics CSVs) tagged with their
/// "source".
JsonValue BundleRows(const ReportBundle& bundle) {
  JsonValue root = Make(Type::kObject);
  auto& rows = root.object;
  for (const char* k : {"violations", "slack"}) rows[k] = Make(Type::kArray);
  auto add = [&rows](const char* table, JsonValue row, std::string source) {
    row.object["source"] = Str(std::move(source));
    rows[table].array.push_back(std::move(row));
  };
  auto slack = [](const JsonValue& m) {
    return m.Str("kind") == "histogram" &&
           m.Str("name").find("slack") != std::string::npos;
  };
  for (const ReportRun& run : bundle.runs) {
    for (const auto& v : Items(At(run.doc, "qos.violations"))) {
      add("violations", v, run.title);
    }
    for (const auto& m : Items(run.doc.Find("metrics"))) {
      if (slack(m)) add("slack", m, run.title);
    }
  }
  for (const auto& [path, samples] : bundle.csvs) {
    for (const MetricSample& s : samples) {
      JsonValue m = Make(Type::kObject);
      m.object = {{"name", Str(s.name)}, {"kind", Str(s.kind)},
                  {"count", Num(static_cast<double>(s.count))},
                  {"min", Num(s.min)}, {"p50", Num(s.p50)},
                  {"p95", Num(s.p95)}, {"p99", Num(s.p99)},
                  {"max", Num(s.max)}};
      if (slack(m)) add("slack", std::move(m), path);
    }
  }
  return root;
}

std::vector<Element> BuildDashboard(const ReportBundle& bundle,
                                    const std::string& title, bool html) {
  Page page(html);
  page.Add(kHeading, html ? page.Esc(title) : title, kPlain, 1);
  page.Add(kPara,
           Cat(std::to_string(bundle.runs.size()), " run report(s), ",
               std::to_string(bundle.csvs.size()), " metrics CSV(s)"),
           kSrc);
  for (const auto& err : bundle.errors) {
    page.Add(kWarn, html ? page.Esc(err) : err);
  }
  for (const ReportRun& run : bundle.runs) {
    page.Add(kHeading, Cat("Run: ", page.Esc(run.title)), kPlain, 2);
    const JsonValue meta = RunMeta(run);
    for (const Block& block : kRunBlocks) {
      const JsonValue* v = *block.key ? run.doc.Find(block.key) : &run.doc;
      if (Truthy(v) && IsBlock(*v)) {
        page.AddParts(block.parts, block.key, *v, &meta, 3);
      }
    }
    for (const auto& [key, v] : run.doc.object) {
      if (IsBlock(v) && Declared(key) == nullptr) page.AddUndeclared(key, v);
    }
  }
  const JsonValue rows = BundleRows(bundle);
  page.AddParts(kBundleParts, "", rows, nullptr, 2);
  return page.elements();
}

/// What a given input file parsed as.
enum class ReportInputKind {
  kRunReport,   ///< a RunReport JSON document (any schema version)
  kMetricsCsv,  ///< a MetricsRegistry::ToCsvText() snapshot
  kUnknown,
};

/// Sniffs content (not filename); a JSON document is parsed into `doc`.
ReportInputKind Classify(const std::string& content, JsonValue* doc) {
  // Metrics CSV: starts with the snapshot header.
  constexpr char kCsvHeader[] = "name,kind,value";
  const std::size_t start =
      std::min(content.find_first_not_of(" \n\r\t"), content.size());
  if (content.compare(start, sizeof(kCsvHeader) - 1, kCsvHeader) == 0) {
    return ReportInputKind::kMetricsCsv;
  }
  bool ok = false;
  *doc = ParseJson(content, &ok);
  return ok && doc->is_object() && doc->Find("schema_version") != nullptr
             ? ReportInputKind::kRunReport
             : ReportInputKind::kUnknown;
}

}  // namespace

Status AddReportInput(const std::string& path, const std::string& content,
                      ReportBundle* bundle) {
  JsonValue doc;
  const ReportInputKind kind = Classify(content, &doc);
  if (kind == ReportInputKind::kMetricsCsv) {
    bundle->csvs.emplace_back(path, ParseMetricsCsv(content));
  } else if (kind == ReportInputKind::kRunReport) {
    const std::string title = doc.Str("title");
    bundle->runs.push_back(
        {path, title.empty() ? path : title, std::move(doc)});
  } else {
    bundle->errors.push_back(path + ": not a run report or metrics CSV");
    return Status::InvalidArgument(bundle->errors.back());
  }
  return Status::OK();
}

Status LoadReportInput(const std::string& path, ReportBundle* bundle) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    bundle->errors.push_back(path + ": cannot open");
    return Status::NotFound(bundle->errors.back());
  }
  std::ostringstream content;
  content << in.rdbuf();
  return AddReportInput(path, content.str(), bundle);
}

std::string RenderMarkdownReport(const ReportBundle& bundle,
                                 const std::string& title) {
  return EmitMarkdown(BuildDashboard(bundle, title, false));
}

std::string RenderHtmlDashboard(const ReportBundle& bundle,
                                const std::string& title) {
  return EmitHtml(BuildDashboard(bundle, title, true), title, kDashboardCss);
}

// --- differential run comparison ---

namespace {

using KeyValues = std::vector<std::pair<std::string, double>>;

/// Matches two key/value lists into diff rows: keys in `a`'s order, then
/// `b`-only keys in `b`'s order. First occurrence wins on duplicates.
std::vector<DiffRow> DiffKeyValues(const KeyValues& a, const KeyValues& b,
                                   const DiffOptions& options) {
  std::vector<DiffRow> out;
  auto add = [&](const std::string& key, double v, bool a_side) {
    for (const auto& row : out) {
      if (row.key == key) return;
    }
    const auto match = std::find_if(b.begin(), b.end(), [&key](auto& kv) {
      return kv.first == key;
    });
    DiffRow& row = out.emplace_back();
    row.key = key;
    (a_side ? row.a : row.b) = v;
    row.only_a = a_side && match == b.end();
    row.only_b = !a_side;
    if (row.only_a || row.only_b) {
      row.significant = std::abs(v) > options.abs_epsilon;
      return;
    }
    row.b = match->second;
    row.delta = row.b - row.a;
    row.rel = row.a != 0 ? row.delta / std::abs(row.a) : 0;
    row.significant =
        std::abs(row.delta) > options.abs_epsilon &&
        (row.a == 0 || std::abs(row.rel) > options.rel_threshold);
  };
  for (const auto& [key, v] : a) add(key, v, true);
  for (const auto& [key, v] : b) add(key, v, false);
  return out;
}

/// Numeric leaves of object `v` as dotted keys: the space-separated
/// `order` first, then the rest in key order; nested objects recurse,
/// arrays and the member `skip` do not.
void NumericLeaves(const JsonValue& v, const std::string& prefix,
                   const char* order, const char* skip, KeyValues* out) {
  std::vector<std::string> names;
  std::istringstream declared(order);
  for (std::string k; declared >> k;) names.push_back(k);
  for (const auto& [k, m] : v.object) {
    if (!std::count(names.begin(), names.end(), k)) names.push_back(k);
  }
  for (const auto& k : names) {
    const JsonValue* m = v.Find(k);
    if (m == nullptr || (skip != nullptr && k == skip)) continue;
    if (m->is_number()) out->emplace_back(prefix + k, m->number);
    if (m->is_object()) {
      NumericLeaves(*m, Cat(prefix, k, "."), "", nullptr, out);
    }
  }
}

/// What --diff compares of one block (`spec` null: undeclared).
KeyValues BlockLeaves(const Block* spec, const JsonValue* v) {
  KeyValues kv;
  if (v == nullptr) return kv;
  NumericLeaves(*v, "", spec != nullptr ? spec->keys : "", nullptr, &kv);
  if (spec == nullptr || spec->keyed.id == nullptr) return kv;
  const KeyedArray& keyed = spec->keyed;
  for (const JsonValue& e :
       Items(*keyed.member ? v->Find(keyed.member) : v)) {
    const std::string id = Cat(keyed.prefix, Int(e.Find(keyed.id)));
    const JsonValue* leaf = keyed.leaf ? e.Find(keyed.leaf) : nullptr;
    if (keyed.leaf == nullptr) {
      NumericLeaves(e, id + ".", keyed.keys, keyed.id, &kv);
    } else if (leaf != nullptr && leaf->is_number()) {
      kv.emplace_back(id, leaf->number);
    }
  }
  return kv;
}

std::size_t CountSignificant(const std::vector<DiffRow>& rows) {
  return std::count_if(rows.begin(), rows.end(),
                       [](const DiffRow& r) { return r.significant; });
}

/// Every block either run carries, declared ones in table order first.
RunPairDiff DiffRuns(const ReportRun& ra, const ReportRun& rb,
                     const DiffOptions& options) {
  RunPairDiff pair;
  pair.title =
      ra.title == rb.title ? ra.title : Cat(ra.title, " vs ", rb.title);
  std::vector<std::string> names;
  for (const Block& b : kRunBlocks) {
    if (*b.key) names.push_back(b.key);
  }
  for (const JsonValue* doc : {&ra.doc, &rb.doc}) {
    for (const auto& [k, v] : doc->object) {
      if (IsBlock(v) && !std::count(names.begin(), names.end(), k)) {
        names.push_back(k);
      }
    }
  }
  for (const auto& name : names) {
    const Block* spec = Declared(name);
    DiffSection section{
        name, DiffKeyValues(BlockLeaves(spec, ra.doc.Find(name)),
                            BlockLeaves(spec, rb.doc.Find(name)), options)};
    if (section.rows.empty()) continue;
    if (spec != nullptr && spec->elide) {
      // Keep every significant row but cap the unchanged ones so the
      // diff stays a triage document.
      std::vector<DiffRow> kept;
      std::size_t insignificant = 0;
      for (auto& row : section.rows) {
        if (row.significant ||
            insignificant < options.max_insignificant_metric_rows) {
          insignificant += row.significant ? 0 : 1;
          kept.push_back(std::move(row));
        } else {
          ++section.elided;
        }
      }
      section.rows = std::move(kept);
    }
    pair.sections.push_back(std::move(section));
  }
  return pair;
}

std::vector<Element> BuildDiff(const BundleDiff& diff,
                               const std::string& title, bool html) {
  Page page(html);
  page.Add(kHeading, html ? page.Esc(title) : title, kPlain, 1);
  page.Add(kPara,
           html ? Cat("A: ", page.Esc(diff.label_a), "<br>B: ",
                      page.Esc(diff.label_b))
                : Cat("A: `", diff.label_a, "`\nB: `", diff.label_b, "`"),
           kSrc);
  page.Add(kPara, Cat(std::to_string(diff.SignificantCount()),
                      " significant difference(s)"));
  for (const char* side : {"A", "B"}) {
    for (const auto& t : *side == 'A' ? diff.only_in_a : diff.only_in_b) {
      page.Add(kPara,
               Cat(html ? "" : "> ", "run only in ", side, ": ", page.Esc(t)),
               kSrc);
    }
  }
  for (const auto& pair : diff.pairs) {
    page.Add(kHeading, page.Esc(pair.title), kPlain, 2);
    for (const auto& section : pair.sections) {
      const std::size_t total = section.rows.size() + section.elided;
      const std::size_t significant = CountSignificant(section.rows);
      page.Add(kHeading, page.Esc(section.name), kPlain, 3);
      if (significant == 0) {
        page.Add(kPara,
                 Cat("No significant differences (", std::to_string(total),
                     " compared)."),
                 kOk);
        continue;
      }
      Element t{kTable};
      t.sig = true;
      t.head = {"key", "A", "B", "delta"};
      for (const DiffRow& r : section.rows) {
        if (!r.significant) continue;
        t.rows.push_back(
            {{page.Esc(r.key)},
             {r.only_b ? "-" : FormatDouble(r.a)},
             {r.only_a ? "-" : FormatDouble(r.b)},
             {r.only_a   ? "only in A"
              : r.only_b ? "only in B"
                         : Cat(FormatDouble(r.delta), " (",
                               FormatDouble(r.rel * 100), "%)")}});
      }
      page.Add(std::move(t));
      page.Add(kPara,
               Cat(std::to_string(total - significant),
                   " insignificant row(s) elided"),
               kNote);
    }
  }
  return page.elements();
}

}  // namespace

const DiffSection* RunPairDiff::Find(const std::string& name) const {
  for (const auto& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::size_t BundleDiff::SignificantCount() const {
  std::size_t n = 0;
  for (const auto& pair : pairs) {
    for (const auto& s : pair.sections) n += CountSignificant(s.rows);
  }
  return n;
}

BundleDiff ComputeBundleDiff(const ReportBundle& a, const ReportBundle& b,
                             const DiffOptions& options,
                             const std::string& label_a,
                             const std::string& label_b) {
  BundleDiff diff;
  diff.label_a = label_a;
  diff.label_b = label_b;
  // Match runs by title first; leftovers pair up in input order, so two
  // single-run bundles always compare even when titled differently.
  std::vector<const ReportRun*> rest_a;
  std::vector<const ReportRun*> rest_b;
  for (const auto& run : b.runs) rest_b.push_back(&run);
  auto take = [&rest_b](const std::string* title) -> const ReportRun* {
    for (auto& run : rest_b) {
      if (run != nullptr && (title == nullptr || run->title == *title)) {
        return std::exchange(run, nullptr);
      }
    }
    return nullptr;
  };
  for (const auto& run : a.runs) {
    if (const ReportRun* partner = take(&run.title)) {
      diff.pairs.push_back(DiffRuns(run, *partner, options));
    } else {
      rest_a.push_back(&run);
    }
  }
  for (const ReportRun* run : rest_a) {
    if (const ReportRun* partner = take(nullptr)) {
      diff.pairs.push_back(DiffRuns(*run, *partner, options));
    } else {
      diff.only_in_a.push_back(run->title);
    }
  }
  for (const ReportRun* run : rest_b) {
    if (run != nullptr) diff.only_in_b.push_back(run->title);
  }
  return diff;
}

std::string RenderMarkdownDiff(const BundleDiff& diff,
                               const std::string& title) {
  return EmitMarkdown(BuildDiff(diff, title, false));
}

std::string RenderHtmlDiff(const BundleDiff& diff, const std::string& title) {
  return EmitHtml(BuildDiff(diff, title, true), title, kDiffCss);
}

}  // namespace memstream::obs
