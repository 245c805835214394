// One page of memstream-report output. A page is built as one list of
// elements (headings, paragraphs, warnings, and tables with ok/bad
// marks) in one output format, by expanding text templates against
// JsonValue trees: Page::AddParts() renders a block's declared Parts,
// Page::AddUndeclared() any JSON block generically. EmitMarkdown() and
// EmitHtml() write the list out; the dashboard and the --diff page share
// both. The page knows nothing of run reports — report_merge.cc holds
// their presentation table.

#ifndef MEMSTREAM_OBS_REPORT_PAGE_H_
#define MEMSTREAM_OBS_REPORT_PAGE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json_parser.h"

namespace memstream::obs::page {

/// Concatenation that never prepends to a std::string temporary.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  ((out += parts), ...);
  return out;
}

/// `v` in the stream's default format ("0.05", "3.5e+08").
std::string FormatDouble(double v);

/// `s` as HTML text, or as a Markdown table cell (no raw '|' or newline).
std::string Escape(const std::string& s, bool html);

/// A JSON value of `type` holding `number` and `text`.
JsonValue Make(JsonValue::Type type, double number = 0,
               std::string text = "");
JsonValue Num(double x);
JsonValue Str(std::string s);

/// The elements of array `v`; none when `v` is absent or not an array.
const std::vector<JsonValue>& Items(const JsonValue* v);

/// A member that is a report block (object or array), not a scalar.
bool IsBlock(const JsonValue& v);

/// true, a number > 0, a non-empty string or array, or any object.
bool Truthy(const JsonValue* v);

/// The value at dotted object path `path` below `v`; null when absent.
const JsonValue* At(const JsonValue& v, const std::string& path);

/// A count as an integer; values no int64 holds (inf, NaN, huge) keep
/// their plain text rather than take an undefined conversion.
std::string Int(const JsonValue* v);

enum class Kind { kHeading, kPara, kWarn, kTable, kKv };
/// Paragraph look: kNote is "(text)" in Markdown and small print in HTML,
/// kBad is bold in Markdown; the others differ only in their HTML class.
enum class Style { kPlain, kSrc, kOk, kBad, kNote };
/// The output formats a part or column shows in.
enum class Only { kBoth, kMd, kHtml };

struct Cell {
  std::string text = {};
  bool bad = false;  ///< HTML class="bad"
};

/// One piece of a page, already rendered for one output format.
struct Element {
  Kind kind = Kind::kPara;
  Style style = Style::kPlain;
  int level = 0;          ///< heading level
  std::string text = {};  ///< heading, paragraph or warning text
  std::vector<std::string> head = {};
  std::vector<std::vector<Cell>> rows = {};
  bool sig = false;  ///< every row highlighted (diff tables)
};

/// A table column. Templates expand `{path}` to the escaped display text
/// of the value at dotted `path` (in the row for cells; in the scope,
/// then the outer scope, for lines); a suffix changes the form: `:d`
/// integer, `:n` array length, `:spark=WxH` sparkline (text bars in
/// Markdown, a W x H SVG in HTML), `|T` T when absent or negative,
/// `?A:B` literal A when the value is truthy, else B.
struct Column {
  const char* head;
  const char* md;              ///< cell template
  const char* html = nullptr;  ///< HTML template when it differs from md
  const char* bad = nullptr;   ///< member whose truthiness marks cells bad
  Only only = Only::kBoth;
};

/// One heading, line or table of a block, in render order.
struct Part {
  Kind kind = Kind::kPara;
  const char* md = "";         ///< text template
  const char* html = nullptr;  ///< HTML template when it differs from md
  Style style = Style::kPlain;
  const char* when = "";       ///< path that must be truthy ("!p": falsy)
  Only only = Only::kBoth;
  const char* rows = "";       ///< table rows' member; "" = the scope
  std::vector<Column> columns = {};
  bool (*keep)(const JsonValue& row) = nullptr;
  std::size_t cap = 0;         ///< rows shown (0 = all); `more` notes rest
  const char* more = "";       ///< {more} = the number of rows not shown
};

/// Builds one page's element list in one output format.
class Page {
 public:
  explicit Page(bool html) : html_(html) {}

  bool html() const { return html_; }
  /// `s` escaped for this page's format.
  std::string Esc(const std::string& s) const { return Escape(s, html_); }
  void Add(Kind kind, std::string text, Style style = Style::kPlain,
           int level = 0);
  void Add(Element element) { doc_.push_back(std::move(element)); }

  /// Renders `parts` with templates resolving in `scope`, then `outer`;
  /// headings get `level`, and a kKv part shows `scope`'s scalar leaves
  /// (nested objects as dotted keys) in a table headed `key`.
  void AddParts(const std::vector<Part>& parts, const std::string& key,
                const JsonValue& scope, const JsonValue* outer, int level);

  /// A block no presentation table declares: a level-3 heading, its
  /// scalar leaves as a key/value table, then each array of objects in
  /// it as a table of their scalar members.
  void AddUndeclared(const std::string& key, const JsonValue& v);

  const std::vector<Element>& elements() const { return doc_; }

 private:
  bool Shows(Only only) const;
  void AddKeyValues(const std::string& key, const JsonValue& v);
  void AddTable(const Part& p, const JsonValue& scope,
                const JsonValue* outer);

  bool html_;
  std::vector<Element> doc_;
};

std::string EmitMarkdown(const std::vector<Element>& doc);

/// A standalone HTML page: the base table and heading style plus `css`
/// inlined, no scripts or external assets.
std::string EmitHtml(const std::vector<Element>& doc,
                     const std::string& title, const std::string& css);

}  // namespace memstream::obs::page

#endif  // MEMSTREAM_OBS_REPORT_PAGE_H_
