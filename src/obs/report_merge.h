// Run-report aggregation: loads one-or-many run.report.json documents
// and metrics CSV snapshots into a single bundle and renders it as
// merged Markdown or a standalone single-file HTML dashboard (inline CSS
// + SVG, no external assets), or compares two bundles (--diff). Run
// reports stay parsed JSON trees: one presentation table in
// report_merge.cc says how each known block renders and which of its
// leaves --diff compares; a block it does not declare still renders and
// diffs generically. This is the library behind tools/memstream-report
// (a thin argv shim).

#ifndef MEMSTREAM_OBS_REPORT_MERGE_H_
#define MEMSTREAM_OBS_REPORT_MERGE_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json_parser.h"
#include "obs/metrics.h"

namespace memstream::obs {

/// What a given input file parsed as.
enum class ReportInputKind {
  kRunReport,   ///< a RunReport JSON document (any schema version)
  kMetricsCsv,  ///< a MetricsRegistry::ToCsvText() snapshot
  kUnknown,
};

/// One run.report.json as loaded: its source path, display title (the
/// document's "title", or the path when that is empty) and JSON tree.
struct ReportRun {
  std::string path;
  std::string title;
  JsonValue doc;
};

/// Everything the dashboard renders, merged across input files.
struct ReportBundle {
  std::vector<ReportRun> runs;
  /// Metrics CSV snapshots: (source path, parsed rows).
  std::vector<std::pair<std::string, std::vector<MetricSample>>> csvs;
  /// Per-file load problems (file kept out of the bundle).
  std::vector<std::string> errors;
};

/// Sniffs content (not filename): JSON object with "schema_version" ->
/// run report; text starting with the metrics CSV header -> metrics CSV.
ReportInputKind ClassifyReportInput(const std::string& content);

/// Parses `content` (from `path`, used for labels/errors) into `bundle`.
/// Unknown or malformed inputs append to bundle->errors and return a
/// non-OK status.
Status AddReportInput(const std::string& path, const std::string& content,
                      ReportBundle* bundle);

/// Reads the file at `path` and forwards to AddReportInput().
Status LoadReportInput(const std::string& path, ReportBundle* bundle);

/// Renders the merged Markdown report.
std::string RenderMarkdownReport(const ReportBundle& bundle,
                                 const std::string& title);

/// Renders the standalone single-file HTML dashboard (inline CSS and
/// SVG sparklines; no scripts, no external assets).
std::string RenderHtmlDashboard(const ReportBundle& bundle,
                                const std::string& title);

// --- differential run comparison (memstream-report --diff) ---

/// Significance thresholds for the diff: a row is significant when
/// |delta| > abs_epsilon AND (|rel| > rel_threshold OR the key exists on
/// only one side).
struct DiffOptions {
  double rel_threshold = 0.02;  ///< 2% relative change
  double abs_epsilon = 1e-12;   ///< ignore float noise
  /// Insignificant metric rows beyond this many per run pair are elided
  /// (metrics arrays can be large); significant rows are always kept.
  std::size_t max_insignificant_metric_rows = 40;
};

/// One compared quantity. `only_a`/`only_b` mark keys present on a
/// single side (the other value is 0 and delta/rel are not meaningful).
struct DiffRow {
  std::string key;
  double a = 0;
  double b = 0;
  double delta = 0;  ///< b - a
  double rel = 0;    ///< delta / |a| (0 when a == 0)
  bool only_a = false;
  bool only_b = false;
  bool significant = false;
};

/// The compared numeric leaves of one report block, as dotted keys.
struct DiffSection {
  std::string name;  ///< the block's key ("simulated", "slo", ...)
  std::vector<DiffRow> rows;
  std::size_t elided = 0;  ///< insignificant rows dropped (metrics)
};

/// All compared sections for one pair of runs matched across bundles:
/// declared blocks in presentation-table order, then undeclared ones;
/// a block without numeric leaves on either side has no section.
struct RunPairDiff {
  std::string title;
  std::vector<DiffSection> sections;
  const DiffSection* Find(const std::string& name) const;  ///< or null
};

/// The full comparison of two bundles.
struct BundleDiff {
  std::string label_a;
  std::string label_b;
  std::vector<RunPairDiff> pairs;
  std::vector<std::string> only_in_a;  ///< run titles without a partner
  std::vector<std::string> only_in_b;

  /// Significant rows across every section of every pair.
  std::size_t SignificantCount() const;
};

/// Aligns the runs of two bundles (by title; unmatched titles pair up in
/// input order) and compares every section. `label_a`/`label_b` name the
/// sides in the rendered output (conventionally the input paths).
BundleDiff ComputeBundleDiff(const ReportBundle& a, const ReportBundle& b,
                             const DiffOptions& options,
                             const std::string& label_a,
                             const std::string& label_b);

/// Renders the significant rows of the diff as Markdown (keys bolded).
std::string RenderMarkdownDiff(const BundleDiff& diff,
                               const std::string& title);

/// Renders the significant rows of the diff as a standalone single-file
/// HTML page (each shown row highlighted).
std::string RenderHtmlDiff(const BundleDiff& diff, const std::string& title);

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_REPORT_MERGE_H_
