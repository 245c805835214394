// memstream-report: merges one-or-many run.report.json documents and
// metrics CSV snapshots into a combined Markdown report and/or a
// standalone single-file HTML dashboard.
//
//   memstream-report run1.json run2.json metrics.csv
//       -o dashboard.html --md report.md --title "nightly"
//
// Differential mode aligns two run bundles and renders only the deltas
// (metrics, SLO attainment, per-stream outcomes). The inputs split in
// half: the first half is side A, the rest side B.
//
//   memstream-report --diff clean.report.json faulted.report.json
//       [--threshold 0.02] [-o delta.html] [--md delta.md]
//
// Inputs are classified by content, not filename. With no -o/--md the
// Markdown output goes to stdout. Exit status: 0 on success, 1 on usage
// errors, 2 when every input failed to load.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/report_merge.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <input>... [-o out.html] [--md out.md] "
               "[--title <title>]\n"
               "       %s --diff <runA> <runB> [--threshold <rel>] "
               "[-o out.html] [--md out.md] [--title <title>]\n"
               "  inputs: run.report.json / metrics CSV "
               "(content-sniffed)\n"
               "  --diff: compare the first half of the inputs (A) with "
               "the rest (B) and render only significant deltas\n"
               "  --threshold: relative significance cutoff for --diff "
               "(default 0.02)\n",
               argv0, argv0);
  return 1;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// Writes `html` and `markdown` to the paths given, Markdown to stdout
/// when neither is. Returns 0, or 2 when a file cannot be written.
int WriteOutputs(const std::string& html_path, const std::string& html,
                 const std::string& md_path, const std::string& markdown) {
  for (const auto& [path, content] : {std::pair{&html_path, &html},
                                      std::pair{&md_path, &markdown}}) {
    if (path->empty()) continue;
    if (!WriteFile(*path, *content)) {
      std::fprintf(stderr, "error: cannot write %s\n", path->c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s (%zu bytes)\n", path->c_str(),
                 content->size());
  }
  if (html_path.empty() && md_path.empty()) std::cout << markdown;
  return 0;
}

int RunDiff(const std::vector<std::string>& inputs,
            const std::string& html_path, const std::string& md_path,
            const std::string& title,
            const memstream::obs::DiffOptions& options) {
  memstream::obs::ReportBundle bundle_a;
  memstream::obs::ReportBundle bundle_b;
  bool ok = true;
  // First input (plus any before the midpoint) is side A, rest side B —
  // the common case is exactly two files.
  const std::size_t split = inputs.size() / 2;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto* bundle = i < split ? &bundle_a : &bundle_b;
    const auto status = memstream::obs::LoadReportInput(inputs[i], bundle);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", inputs[i].c_str(),
                   status.message().c_str());
      ok = false;
    }
  }
  if (!ok) return 2;

  std::string label_a = inputs.front();
  std::string label_b = inputs.back();
  if (split > 1) {
    label_a += " (+" + std::to_string(split - 1) + " more)";
    label_b = inputs[split] + " (+" +
              std::to_string(inputs.size() - split - 1) + " more)";
  }
  const memstream::obs::BundleDiff diff = memstream::obs::ComputeBundleDiff(
      bundle_a, bundle_b, options, label_a, label_b);

  return WriteOutputs(html_path, memstream::obs::RenderHtmlDiff(diff, title),
                      md_path,
                      memstream::obs::RenderMarkdownDiff(diff, title));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string html_path;
  std::string md_path;
  std::string title;
  bool diff_mode = false;
  memstream::obs::DiffOptions diff_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" || arg == "--html") {
      if (++i >= argc) return Usage(argv[0]);
      html_path = argv[i];
    } else if (arg == "--md" || arg == "--markdown") {
      if (++i >= argc) return Usage(argv[0]);
      md_path = argv[i];
    } else if (arg == "--title") {
      if (++i >= argc) return Usage(argv[0]);
      title = argv[i];
    } else if (arg == "--diff") {
      diff_mode = true;
    } else if (arg == "--threshold") {
      if (++i >= argc) return Usage(argv[0]);
      char* end = nullptr;
      diff_options.rel_threshold = std::strtod(argv[i], &end);
      if (end == argv[i] || *end != '\0' ||
          !std::isfinite(diff_options.rel_threshold) ||
          diff_options.rel_threshold < 0) {
        std::fprintf(stderr, "bad --threshold: %s\n", argv[i]);
        return Usage(argv[0]);
      }
    } else if (arg == "-h" || arg == "--help") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (title.empty()) {
    title = diff_mode ? "memstream run diff" : "memstream run report";
  }
  if (diff_mode) {
    if (inputs.size() < 2) {
      std::fprintf(stderr, "--diff needs two inputs (A and B)\n");
      return Usage(argv[0]);
    }
    return RunDiff(inputs, html_path, md_path, title, diff_options);
  }
  if (inputs.empty()) return Usage(argv[0]);

  memstream::obs::ReportBundle bundle;
  std::size_t loaded = 0;
  for (const auto& path : inputs) {
    const auto status = memstream::obs::LoadReportInput(path, &bundle);
    if (status.ok()) {
      ++loaded;
    } else {
      std::fprintf(stderr, "warning: %s: %s\n", path.c_str(),
                   status.message().c_str());
    }
  }
  if (loaded == 0) {
    std::fprintf(stderr, "error: no input could be loaded\n");
    return 2;
  }

  return WriteOutputs(
      html_path, memstream::obs::RenderHtmlDashboard(bundle, title), md_path,
      memstream::obs::RenderMarkdownReport(bundle, title));
}
