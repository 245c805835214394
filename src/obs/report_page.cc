#include "obs/report_page.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace memstream::obs::page {

namespace {

using Type = JsonValue::Type;

/// Where template paths resolve: the row first, then its surroundings.
struct Scope {
  const JsonValue* row;
  const JsonValue* outer = nullptr;
  const JsonValue* Lookup(const std::string& path) const {
    const JsonValue* v = At(*row, path);
    return v != nullptr || outer == nullptr ? v : At(*outer, path);
  }
};

/// Scalars as display text; containers and absent values as "".
std::string Plain(const JsonValue* v) {
  if (v == nullptr) return "";
  if (v->is_number()) return FormatDouble(v->number);
  if (v->type == Type::kBool) return v->boolean ? "true" : "false";
  return v->string;
}

/// Position of `v` in [lo, lo + span] as a fraction in [0, 1]; 0 for a
/// non-finite value or a span that overflowed.
double Fraction(double v, double lo, double span) {
  const double f = (v - lo) / span;
  return std::isfinite(f) ? std::clamp(f, 0.0, 1.0) : 0.0;
}

/// Sparkline of `v`'s finite [t, v] samples scaled to their range: a
/// width x height inline SVG polyline ("" for fewer than two samples).
std::string Sparkline(const JsonValue* v, int width, int height) {
  std::vector<std::pair<double, double>> pts;
  for (const JsonValue& p : Items(v)) {
    if (p.array.size() == 2 && std::isfinite(p.array[0].number) &&
        std::isfinite(p.array[1].number)) {
      pts.emplace_back(p.array[0].number, p.array[1].number);
    }
  }
  if (pts.size() < 2) return "";
  double x_lo = INFINITY, x_hi = -INFINITY;
  double y_lo = INFINITY, y_hi = -INFINITY;
  for (const auto& [x, y] : pts) {
    x_lo = std::min(x_lo, x);
    x_hi = std::max(x_hi, x);
    y_lo = std::min(y_lo, y);
    y_hi = std::max(y_hi, y);
  }
  const double x_span = x_hi - x_lo > 0 ? x_hi - x_lo : 1;
  const double y_span = y_hi - y_lo > 0 ? y_hi - y_lo : 1;
  const std::string w = std::to_string(width);
  const std::string h = std::to_string(height);
  std::string out = Cat(
      "<svg viewBox=\"0 0 ", w, " ", h, "\" width=\"", w, "\" height=\"", h,
      "\" preserveAspectRatio=\"none\">",
      "<polyline fill=\"none\" stroke=\"#2a6fb0\" ",
      "stroke-width=\"1.5\" points=\"");
  const char* sep = "";
  for (const auto& [x, y] : pts) {
    out += Cat(sep, FormatDouble(2 + Fraction(x, x_lo, x_span) * (width - 4)),
               ",",
               FormatDouble(height - 2 -
                            Fraction(y, y_lo, y_span) * (height - 4)));
    sep = " ";
  }
  return out + "\"/></svg>";
}

/// Expands a template (see Column) against `scope`.
std::string Expand(const std::string& tmpl, const Scope& scope, bool html) {
  std::string out;
  std::size_t i = 0;
  for (std::size_t open; (open = tmpl.find('{', i)) != std::string::npos;) {
    const std::size_t close = tmpl.find('}', open);
    if (close == std::string::npos) break;
    out += tmpl.substr(i, open - i);
    const std::string spec = tmpl.substr(open + 1, close - open - 1);
    i = close + 1;
    const std::size_t op = std::min(spec.find_first_of(":?|"), spec.size());
    const JsonValue* v = scope.Lookup(spec.substr(0, op));
    const char kind = op < spec.size() ? spec[op] : '\0';
    const std::string arg = spec.substr(std::min(op + 1, spec.size()));
    const std::size_t colon = std::min(arg.find(':'), arg.size());
    if (kind == '?') {
      out += Truthy(v) ? arg.substr(0, colon)
                       : arg.substr(std::min(colon + 1, arg.size()));
    } else if (arg.rfind("spark=", 0) == 0) {
      char* x = nullptr;
      const long width = std::strtol(arg.c_str() + 6, &x, 10);
      const long height = *x == 'x' ? std::strtol(x + 1, nullptr, 10) : 0;
      out += Sparkline(v, static_cast<int>(width), static_cast<int>(height));
    } else if (arg == "n") {
      out += std::to_string(Items(v).size());
    } else if (kind == '|' && (v == nullptr || v->number < 0)) {
      out += Escape(arg, html);
    } else {
      out += Escape(arg == "d" ? Int(v) : Plain(v), html);
    }
  }
  return out + tmpl.substr(i);
}

}  // namespace

std::string FormatDouble(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

std::string Escape(const std::string& s, bool html) {
  std::string out;
  for (char c : s) {
    const char* sub = nullptr;
    if (html) {
      sub = c == '&'   ? "&amp;"
            : c == '<' ? "&lt;"
            : c == '>' ? "&gt;"
            : c == '"' ? "&quot;"
                       : nullptr;
    } else {
      sub = c == '|' ? "\\|" : c == '\n' ? " " : nullptr;
    }
    if (sub != nullptr) {
      out += sub;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

JsonValue Make(Type type, double number, std::string text) {
  JsonValue v;
  v.type = type;
  v.number = number;
  v.string = std::move(text);
  return v;
}
JsonValue Num(double x) { return Make(Type::kNumber, x); }
JsonValue Str(std::string s) { return Make(Type::kString, 0, std::move(s)); }

const std::vector<JsonValue>& Items(const JsonValue* v) {
  static const std::vector<JsonValue> kNone;
  return v != nullptr ? v->array : kNone;
}

bool IsBlock(const JsonValue& v) { return v.is_object() || v.is_array(); }

bool Truthy(const JsonValue* v) {
  if (v == nullptr) return false;
  switch (v->type) {
    case Type::kBool: return v->boolean;
    case Type::kNumber: return v->number > 0;
    case Type::kString: return !v->string.empty();
    case Type::kArray: return !v->array.empty();
    case Type::kObject: return true;
    default: return false;
  }
}

const JsonValue* At(const JsonValue& v, const std::string& path) {
  const JsonValue* cur = &v;
  for (std::size_t start = 0; cur != nullptr && start <= path.size();) {
    const std::size_t dot = std::min(path.find('.', start), path.size());
    cur = cur->Find(path.substr(start, dot - start));
    start = dot + 1;
  }
  return cur;
}

std::string Int(const JsonValue* v) {
  if (v == nullptr || !v->is_number() || !(std::abs(v->number) < 9.2e18)) {
    return Plain(v);
  }
  return std::to_string(static_cast<std::int64_t>(v->number));
}

bool Page::Shows(Only only) const {
  return only == Only::kBoth || (only == Only::kHtml) == html_;
}

void Page::Add(Kind kind, std::string text, Style style, int level) {
  doc_.push_back({kind, style, level, std::move(text)});
}

void Page::AddKeyValues(const std::string& key, const JsonValue& v) {
  Element t{Kind::kTable};
  t.head = {Esc(key), "value"};
  auto walk = [&](auto& self, const JsonValue& o,
                  const std::string& at) -> void {
    for (const auto& [k, m] : o.object) {
      if (m.is_object()) self(self, m, Cat(at, k, "."));
      if (!IsBlock(m)) t.rows.push_back({{Esc(at + k)}, {Esc(Plain(&m))}});
    }
  };
  walk(walk, v, "");
  if (!t.rows.empty()) Add(std::move(t));
}

void Page::AddTable(const Part& p, const JsonValue& scope,
                    const JsonValue* outer) {
  Element t{Kind::kTable};
  for (const Column& c : p.columns) {
    if (Shows(c.only)) t.head.push_back(c.head);
  }
  std::size_t hidden = 0;
  for (const JsonValue& r :
       Items(*p.rows ? Scope{&scope, outer}.Lookup(p.rows) : &scope)) {
    if (!r.is_object() || (p.keep != nullptr && !p.keep(r))) continue;
    if (p.cap > 0 && t.rows.size() == p.cap) {
      ++hidden;
      continue;
    }
    auto& row = t.rows.emplace_back();
    for (const Column& c : p.columns) {
      if (!Shows(c.only)) continue;
      const char* tmpl = html_ && c.html != nullptr ? c.html : c.md;
      row.push_back({Expand(tmpl, {&r}, html_),
                     c.bad != nullptr && Truthy(r.Find(c.bad))});
    }
  }
  if (t.rows.empty()) return;
  Add(std::move(t));
  if (hidden == 0) return;
  JsonValue more = Make(Type::kObject);
  more.object["more"] = Num(static_cast<double>(hidden));
  Add(Kind::kPara, Expand(p.more, {&more}, html_), Style::kNote);
}

void Page::AddParts(const std::vector<Part>& parts, const std::string& key,
                    const JsonValue& scope, const JsonValue* outer,
                    int level) {
  for (const Part& p : parts) {
    const bool negate = p.when[0] == '!';
    if (!Shows(p.only) ||
        (p.when[0] != '\0' &&
         Truthy(Scope{&scope, outer}.Lookup(p.when + negate)) == negate)) {
      continue;
    }
    if (p.kind == Kind::kTable) {
      AddTable(p, scope, outer);
    } else if (p.kind == Kind::kKv) {
      AddKeyValues(key, scope);
    } else {
      const char* tmpl = html_ && p.html != nullptr ? p.html : p.md;
      Add(p.kind, Expand(tmpl, {&scope, outer}, html_), p.style, level);
    }
  }
}

void Page::AddUndeclared(const std::string& key, const JsonValue& v) {
  Add(Kind::kHeading, Esc(key), Style::kPlain, 3);
  if (v.is_object()) AddKeyValues(key, v);
  std::vector<std::pair<std::string, const JsonValue*>> arrays;
  if (v.is_array()) arrays.emplace_back(key, &v);
  for (const auto& [k, m] : v.object) {
    if (m.is_array()) arrays.emplace_back(Cat(key, ".", k), &m);
  }
  for (const auto& [name, arr] : arrays) {
    Element t{Kind::kTable};
    std::vector<std::string> cols;
    for (const JsonValue& r : arr->array) {
      for (const auto& [k, m] : r.object) {
        if (IsBlock(m) || std::count(cols.begin(), cols.end(), k)) continue;
        cols.push_back(k);
        t.head.push_back(Esc(k));
      }
    }
    for (const JsonValue& r : arr->array) {
      if (!r.is_object() || cols.empty()) continue;
      auto& row = t.rows.emplace_back();
      for (const auto& c : cols) row.push_back({Esc(Plain(r.Find(c)))});
    }
    if (t.rows.empty()) continue;
    Add(Kind::kPara, Esc(name), Style::kSrc);
    Add(std::move(t));
  }
}

std::string EmitMarkdown(const std::vector<Element>& doc) {
  std::string out;
  for (const Element& e : doc) {
    if (e.kind == Kind::kHeading) {
      out += Cat(std::string(e.level, '#'), " ", e.text);
    } else if (e.kind == Kind::kWarn) {
      out += Cat("> warning: ", e.text);
    } else if (e.kind == Kind::kPara) {
      out += e.style == Style::kBad    ? Cat("**", e.text, "**")
             : e.style == Style::kNote ? Cat("(", e.text, ")")
                                       : e.text;
    } else {
      out += "|";
      for (const auto& h : e.head) out += Cat(" ", h, " |");
      out += "\n|";
      for (std::size_t i = 0; i < e.head.size(); ++i) out += "---|";
      for (const auto& row : e.rows) {
        out += "\n|";
        for (const Cell& c : row) {
          out += e.sig && &c == &row[0] ? Cat(" **", c.text, "** |")
                                        : Cat(" ", c.text, " |");
        }
      }
    }
    out += "\n\n";
  }
  return out;
}

std::string EmitHtml(const std::vector<Element>& doc,
                     const std::string& title, const std::string& css) {
  // Paragraph classes, indexed by Style.
  static const char* const kClass[] = {"", " class=\"src\"", " class=\"ok\"",
                                       " class=\"bad\"", " class=\"src\""};
  constexpr char kBaseCss[] =
      "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;"
      "max-width:70em;padding:0 1em;color:#1c2733}\n"
      "h1,h2{border-bottom:1px solid #d8dee4;padding-bottom:.2em}\n"
      "table{border-collapse:collapse;margin:.8em 0}\n"
      "th,td{border:1px solid #d8dee4;padding:.25em .6em;text-align:left}\n"
      "th{background:#f3f6f9}\n";
  std::string out = Cat("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n",
                        "<meta charset=\"utf-8\">\n<title>",
                        Escape(title, true), "</title>\n<style>\n", kBaseCss,
                        css, "</style>\n</head>\n<body>\n");
  for (const Element& e : doc) {
    if (e.kind == Kind::kHeading) {
      const std::string h = std::to_string(e.level);
      out += Cat("<h", h, ">", e.text, "</h", h, ">\n");
    } else if (e.kind == Kind::kWarn) {
      out += Cat("<p class=\"warn\">", e.text, "</p>\n");
    } else if (e.kind == Kind::kPara) {
      out += Cat("<p", kClass[static_cast<int>(e.style)], ">", e.text,
                 "</p>\n");
    } else {
      out += "<table><tr>";
      for (const auto& h : e.head) out += Cat("<th>", h, "</th>");
      out += "</tr>\n";
      for (const auto& row : e.rows) {
        out += e.sig ? "<tr class=\"sig\">" : "<tr>";
        for (const Cell& c : row) {
          out += Cat(c.bad ? "<td class=\"bad\">" : "<td>", c.text, "</td>");
        }
        out += "</tr>\n";
      }
      out += "</table>\n";
    }
  }
  return out + "</body>\n</html>\n";
}

}  // namespace memstream::obs::page
