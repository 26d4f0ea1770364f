#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "obs/ledger.hpp"
#include "util/fsio.hpp"

namespace xlp::obs {

namespace {

constexpr const char* kPalette[] = {"#1f77b4", "#d62728", "#2ca02c",
                                    "#9467bd", "#ff7f0e", "#8c564b",
                                    "#17becf", "#7f7f7f"};
constexpr std::size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);

std::string fmt(double v) {
  if (!std::isfinite(v)) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Linear blue -> red utilization color, clamped to [0, 1].
std::string heat_color(double u) {
  u = std::clamp(std::isfinite(u) ? u : 0.0, 0.0, 1.0);
  const auto lerp = [u](int a, int b) {
    return static_cast<int>(a + (b - a) * u + 0.5);
  };
  char buf[8];
  std::snprintf(buf, sizeof(buf), "#%02x%02x%02x", lerp(0x21, 0xb2),
                lerp(0x66, 0x18), lerp(0xac, 0x2b));
  return buf;
}

double field_number(const Json& record, const char* key, double fallback) {
  const Json* v = record.find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

/// Compact nanosecond label for histogram axes and quantile summaries.
std::string fmt_ns(double ns) {
  char buf[32];
  if (ns < 1e3) std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  else if (ns < 1e6) std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  else if (ns < 1e9) std::snprintf(buf, sizeof(buf), "%.1fms", ns / 1e6);
  else std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  return buf;
}

/// Buckets one trace event into its phase; keeps the heatmap event.
void absorb_trace_event(const Json& record, RunDirData& data) {
  const Json* event = record.find("event");
  if (event == nullptr || !event->is_string()) return;
  const std::string& name = event->as_string();
  if (const Json* ts = record.find("ts"); ts != nullptr && ts->is_number()) {
    const Json* phase = record.find("phase");
    auto [it, inserted] = data.trace_phases.try_emplace(
        phase != nullptr && phase->is_string() ? phase->as_string() : name);
    if (inserted) it->second.first_ts = ts->as_number();
    it->second.last_ts = ts->as_number();
    ++it->second.events;
  }
  if (name == "sim.channel_utilization")
    data.heatmap = record;  // keep the last one found
}

/// Buckets one parsed .json document by content shape.
void classify_json(Json doc, RunDirData& data) {
  if (doc.is_object()) {
    if (const Json* schema = doc.find("schema");
        schema != nullptr && schema->is_string()) {
      if (schema->as_string() == "xlp-series/1" && !data.series)
        data.series = std::move(doc);
      return;  // other schemas (bench, ledger) are not report inputs here
    }
    if (const Json* kind = doc.find("kind");
        kind != nullptr && kind->is_string() &&
        kind->as_string() == "stats" && doc.find("latency") != nullptr) {
      // xlpd --stats-json snapshot (the `stats` request payload).
      if (!data.server_stats) data.server_stats = std::move(doc);
      return;
    }
    if (doc.find("counters") != nullptr) {
      if (!data.metrics) data.metrics = std::move(doc);
      return;
    }
    if (doc.find("packets_offered") != nullptr &&
        doc.find("latency") != nullptr) {
      if (!data.stats) data.stats = std::move(doc);
      return;
    }
    return;
  }
  if (doc.is_array() && doc.size() > 0 && doc.at(0).is_object() &&
      doc.at(0).find("exclusive_us") != nullptr) {
    if (!data.profile) data.profile = std::move(doc);
  }
}

/// Appends two-column table rows for every numeric/bool/string member,
/// recursing one level into nested objects with a dotted prefix. Arrays
/// (e.g. channel_flits) are summarized by length only.
void stats_rows(const Json& obj, const std::string& prefix, std::string& out) {
  for (const auto& [key, value] : obj.members()) {
    const std::string label = prefix.empty() ? key : prefix + "." + key;
    if (value.is_object()) {
      if (prefix.empty()) stats_rows(value, key, out);
      continue;
    }
    std::string shown;
    if (value.is_number()) {
      shown = fmt(value.as_number());
    } else if (value.is_string()) {
      shown = html_escape(value.as_string());
    } else if (value.type() == Json::Type::kBool) {
      shown = value.as_bool() ? "true" : "false";
    } else if (value.is_array()) {
      shown = "[" + std::to_string(value.size()) + " entries]";
    } else {
      shown = "null";
    }
    out += "<tr><td>" + html_escape(label) + "</td><td class=\"num\">" +
           shown + "</td></tr>\n";
  }
}

}  // namespace

std::string html_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

RunDirData collect_run_dir(const std::string& dir) {
  RunDirData data;
  data.dir = dir;
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) names.push_back(entry.path().filename());
  }
  std::sort(names.begin(), names.end());

  for (const std::string& name : names) {
    const std::string path = (fs::path(dir) / name).string();
    if (ends_with(name, ".jsonl")) {
      if (name == "ledger.jsonl") {
        data.ledger = read_ledger(path);
        continue;
      }
      const auto content = util::read_file(path);
      if (!content) continue;
      std::istringstream in(*content);
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (const auto record = Json::parse(line);
            record && record->is_object())
          absorb_trace_event(*record, data);
      }
    } else if (ends_with(name, ".json")) {
      const auto content = util::read_file(path);
      if (!content) continue;
      if (auto doc = Json::parse(*content)) classify_json(std::move(*doc), data);
    }
  }
  return data;
}

std::vector<ChartSeries> chart_series_from_json(const Json& series_doc) {
  std::vector<ChartSeries> out;
  const Json* all = series_doc.find("series");
  if (all == nullptr || !all->is_object()) return out;
  for (const auto& [name, series] : all->members()) {
    ChartSeries chart;
    chart.name = name;
    if (const Json* points = series.find("points");
        points != nullptr && points->is_array()) {
      for (std::size_t i = 0; i < points->size(); ++i) {
        const Json& p = points->at(i);
        if (p.is_array() && p.size() >= 2 && p.at(0).is_number() &&
            p.at(1).is_number())
          chart.points.emplace_back(p.at(0).as_number(), p.at(1).as_number());
      }
    }
    out.push_back(std::move(chart));
  }
  return out;
}

std::string svg_line_chart(const std::string& title,
                           const std::vector<ChartSeries>& series, int width,
                           int height) {
  const double left = 58.0, right = 14.0, top = 26.0, bottom = 32.0;
  const double plot_w = width - left - right;
  const double plot_h = height - top - bottom;

  double xmin = 0.0, xmax = 0.0, ymin = 0.0, ymax = 0.0;
  bool any = false;
  for (const ChartSeries& s : series) {
    for (const auto& [x, y] : s.points) {
      if (!std::isfinite(x) || !std::isfinite(y)) continue;
      if (!any) {
        xmin = xmax = x;
        ymin = ymax = y;
        any = true;
      } else {
        xmin = std::min(xmin, x);
        xmax = std::max(xmax, x);
        ymin = std::min(ymin, y);
        ymax = std::max(ymax, y);
      }
    }
  }
  if (xmax <= xmin) xmax = xmin + 1.0;
  if (ymax <= ymin) {
    ymin -= 0.5;
    ymax += 0.5;
  }
  const auto px = [&](double x) {
    return left + (x - xmin) / (xmax - xmin) * plot_w;
  };
  const auto py = [&](double y) {
    return top + plot_h - (y - ymin) / (ymax - ymin) * plot_h;
  };

  std::ostringstream svg;
  svg << "<svg width=\"" << width
      << "\" height=\"" << height << "\" viewBox=\"0 0 " << width << " "
      << height << "\" class=\"chart\">\n";
  svg << "<text x=\"" << left << "\" y=\"16\" class=\"ctitle\">"
      << html_escape(title) << "</text>\n";
  // Plot frame and min/max tick labels.
  svg << "<rect x=\"" << left << "\" y=\"" << top << "\" width=\"" << plot_w
      << "\" height=\"" << plot_h
      << "\" fill=\"none\" stroke=\"#999\" stroke-width=\"1\"/>\n";
  if (!any) {
    svg << "<text x=\"" << left + plot_w / 2 << "\" y=\""
        << top + plot_h / 2 << "\" text-anchor=\"middle\" class=\"clabel\">"
        << "no data</text>\n</svg>\n";
    return svg.str();
  }
  svg << "<text x=\"" << left << "\" y=\"" << height - 10
      << "\" class=\"clabel\">" << fmt(xmin) << "</text>\n";
  svg << "<text x=\"" << left + plot_w << "\" y=\"" << height - 10
      << "\" text-anchor=\"end\" class=\"clabel\">" << fmt(xmax)
      << "</text>\n";
  svg << "<text x=\"" << left - 6 << "\" y=\"" << top + plot_h
      << "\" text-anchor=\"end\" class=\"clabel\">" << fmt(ymin)
      << "</text>\n";
  svg << "<text x=\"" << left - 6 << "\" y=\"" << top + 10
      << "\" text-anchor=\"end\" class=\"clabel\">" << fmt(ymax)
      << "</text>\n";

  for (std::size_t i = 0; i < series.size(); ++i) {
    const ChartSeries& s = series[i];
    const char* color = kPalette[i % kPaletteSize];
    std::ostringstream pts;
    std::size_t plotted = 0;
    for (const auto& [x, y] : s.points) {
      if (!std::isfinite(x) || !std::isfinite(y)) continue;
      pts << (plotted ? " " : "") << fmt(px(x)) << "," << fmt(py(y));
      ++plotted;
    }
    if (plotted == 1) {
      const auto& [x, y] = s.points.front();
      svg << "<circle cx=\"" << fmt(px(x)) << "\" cy=\"" << fmt(py(y))
          << "\" r=\"3\" fill=\"" << color << "\"/>\n";
    } else if (plotted > 1) {
      svg << "<polyline fill=\"none\" stroke=\"" << color
          << "\" stroke-width=\"1.5\" points=\"" << pts.str() << "\"/>\n";
    }
    // Legend row, top-right, one line per series.
    const double ly = top + 12 + 14.0 * static_cast<double>(i);
    svg << "<rect x=\"" << left + plot_w - 150 << "\" y=\"" << ly - 8
        << "\" width=\"10\" height=\"10\" fill=\"" << color << "\"/>\n";
    svg << "<text x=\"" << left + plot_w - 136 << "\" y=\"" << ly
        << "\" class=\"clabel\">" << html_escape(s.name) << "</text>\n";
  }
  svg << "</svg>\n";
  return svg.str();
}

std::string svg_latency_histogram(const std::string& title,
                                  const Json& hist) {
  const int width = 660, height = 220;
  const double left = 58.0, right = 14.0, top = 26.0, bottom = 32.0;
  const double plot_w = width - left - right;
  const double plot_h = height - top - bottom;

  const Json* buckets = hist.find("buckets");
  const double count = field_number(hist, "count", 0.0);
  std::ostringstream svg;
  svg << "<svg width=\"" << width << "\" height=\"" << height
      << "\" viewBox=\"0 0 " << width << " " << height
      << "\" class=\"chart\">\n";
  svg << "<text x=\"" << left << "\" y=\"16\" class=\"ctitle\">"
      << html_escape(title) << " &mdash; "
      << fmt(count) << " samples, p50 "
      << fmt_ns(field_number(hist, "p50", 0)) << ", p90 "
      << fmt_ns(field_number(hist, "p90", 0)) << ", p99 "
      << fmt_ns(field_number(hist, "p99", 0)) << ", max "
      << fmt_ns(field_number(hist, "max", 0)) << "</text>\n";
  svg << "<rect x=\"" << left << "\" y=\"" << top << "\" width=\"" << plot_w
      << "\" height=\"" << plot_h
      << "\" fill=\"none\" stroke=\"#999\" stroke-width=\"1\"/>\n";
  if (count <= 0 || buckets == nullptr || !buckets->is_array() ||
      buckets->size() == 0) {
    svg << "<text x=\"" << left + plot_w / 2 << "\" y=\""
        << top + plot_h / 2 << "\" text-anchor=\"middle\" class=\"clabel\">"
        << "no samples</text>\n</svg>\n";
    return svg.str();
  }

  double peak = 0.0;
  for (std::size_t i = 0; i < buckets->size(); ++i) {
    const Json& b = buckets->at(i);
    if (b.is_array() && b.size() >= 2)
      peak = std::max(peak, b.at(1).as_number());
  }
  if (peak <= 0.0) peak = 1.0;

  // One equal-width bar per populated bucket: the log-bucketed layout
  // already makes the x axis roughly logarithmic in latency.
  const std::size_t bars = buckets->size();
  const double bar_w = plot_w / static_cast<double>(bars);
  for (std::size_t i = 0; i < bars; ++i) {
    const Json& b = buckets->at(i);
    if (!b.is_array() || b.size() < 2) continue;
    const double c = b.at(1).as_number();
    const double h = plot_h * c / peak;
    svg << "<rect x=\"" << fmt(left + bar_w * static_cast<double>(i) + 0.5)
        << "\" y=\"" << fmt(top + plot_h - h) << "\" width=\""
        << fmt(std::max(bar_w - 1.0, 0.5)) << "\" height=\"" << fmt(h)
        << "\" fill=\"" << kPalette[0] << "\"><title>&ge; "
        << fmt_ns(b.at(0).as_number()) << ": " << fmt(c)
        << "</title></rect>\n";
  }
  svg << "<text x=\"" << left << "\" y=\"" << height - 10
      << "\" class=\"clabel\">"
      << fmt_ns(buckets->at(0).at(0).as_number()) << "</text>\n";
  svg << "<text x=\"" << left + plot_w << "\" y=\"" << height - 10
      << "\" text-anchor=\"end\" class=\"clabel\">"
      << fmt_ns(buckets->at(bars - 1).at(0).as_number()) << "</text>\n";
  svg << "<text x=\"" << left - 6 << "\" y=\"" << top + 10
      << "\" text-anchor=\"end\" class=\"clabel\">" << fmt(peak)
      << "</text>\n";
  svg << "<text x=\"" << left - 6 << "\" y=\"" << top + plot_h
      << "\" text-anchor=\"end\" class=\"clabel\">0</text>\n";
  svg << "</svg>\n";
  return svg.str();
}

std::string svg_channel_heatmap(const Json& heatmap_event) {
  const Json* channels = heatmap_event.find("channels");
  if (channels == nullptr || !channels->is_array() || channels->size() == 0)
    return "<p>No channel data.</p>\n";

  long max_router = 0;
  for (std::size_t i = 0; i < channels->size(); ++i) {
    const Json& ch = channels->at(i);
    max_router = std::max(max_router,
                          std::max(static_cast<long>(field_number(ch, "src", 0)),
                                   static_cast<long>(field_number(ch, "dst", 0))));
  }
  long mesh_w = static_cast<long>(field_number(heatmap_event, "width", 0));
  long mesh_h = static_cast<long>(field_number(heatmap_event, "height", 0));
  if (mesh_w <= 0) {
    // Older traces carry no dimensions; assume the paper's square mesh.
    mesh_w = static_cast<long>(
        std::lround(std::ceil(std::sqrt(static_cast<double>(max_router + 1)))));
    if (mesh_w <= 0) mesh_w = 1;
  }
  if (mesh_h <= 0) mesh_h = (max_router / mesh_w) + 1;

  const double cell = 56.0, pad = 34.0;
  const double width = pad * 2 + cell * static_cast<double>(mesh_w - 1);
  const double height = pad * 2 + cell * static_cast<double>(mesh_h - 1) + 30;
  const auto cx = [&](long r) { return pad + cell * static_cast<double>(r % mesh_w); };
  const auto cy = [&](long r) { return pad + cell * static_cast<double>(r / mesh_w); };

  std::ostringstream svg;
  svg << "<svg width=\"" << width
      << "\" height=\"" << height << "\" viewBox=\"0 0 " << width << " "
      << height << "\" class=\"chart\">\n";
  // Channels first so router dots draw on top. Each direction is nudged
  // sideways by its perpendicular so both directed channels stay visible.
  for (std::size_t i = 0; i < channels->size(); ++i) {
    const Json& ch = channels->at(i);
    const long src = static_cast<long>(field_number(ch, "src", 0));
    const long dst = static_cast<long>(field_number(ch, "dst", 0));
    const double util = field_number(ch, "utilization", 0.0);
    double dx = cx(dst) - cx(src), dy = cy(dst) - cy(src);
    const double len = std::sqrt(dx * dx + dy * dy);
    if (len > 0) {
      dx /= len;
      dy /= len;
    }
    const double ox = -dy * 2.5, oy = dx * 2.5;
    svg << "<line x1=\"" << fmt(cx(src) + ox) << "\" y1=\""
        << fmt(cy(src) + oy) << "\" x2=\"" << fmt(cx(dst) + ox)
        << "\" y2=\"" << fmt(cy(dst) + oy) << "\" stroke=\""
        << heat_color(util) << "\" stroke-width=\"3\" stroke-linecap=\"round\""
        << "><title>" << src << "-&gt;" << dst << " u=" << fmt(util)
        << "</title></line>\n";
  }
  for (long r = 0; r < mesh_w * mesh_h; ++r) {
    svg << "<circle cx=\"" << fmt(cx(r)) << "\" cy=\"" << fmt(cy(r))
        << "\" r=\"5\" fill=\"#333\"/>\n";
  }
  // Utilization legend swatches along the bottom.
  for (int i = 0; i <= 4; ++i) {
    const double u = i / 4.0;
    const double lx = pad + 60.0 * i;
    svg << "<rect x=\"" << fmt(lx) << "\" y=\"" << height - 22
        << "\" width=\"12\" height=\"12\" fill=\"" << heat_color(u)
        << "\"/>\n<text x=\"" << fmt(lx + 16) << "\" y=\"" << height - 12
        << "\" class=\"clabel\">" << fmt(u) << "</text>\n";
  }
  svg << "</svg>\n";
  return svg.str();
}

std::string html_page(const std::string& title, const std::string& body) {
  std::string out;
  out += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n";
  out += "<meta charset=\"utf-8\">\n<title>" + html_escape(title) +
         "</title>\n";
  out +=
      "<style>\n"
      "body{font-family:system-ui,sans-serif;margin:24px;color:#222;"
      "max-width:1100px}\n"
      "h1{font-size:22px}h2{font-size:17px;margin-top:28px;"
      "border-bottom:1px solid #ddd;padding-bottom:4px}\n"
      "table{border-collapse:collapse;font-size:13px}\n"
      "td,th{border:1px solid #ddd;padding:3px 8px;text-align:left}\n"
      "th{background:#f5f5f5}td.num{text-align:right;"
      "font-variant-numeric:tabular-nums}\n"
      ".chart{margin:6px 12px 6px 0}\n"
      ".ctitle{font-size:13px;font-weight:600}\n"
      ".clabel{font-size:10px;fill:#555}\n"
      ".depth{color:#999}\n"
      "footer{margin-top:32px;font-size:11px;color:#888}\n"
      "</style>\n</head>\n<body>\n";
  out += body;
  out += "<footer>Generated by xlp report — self-contained, no external "
         "resources.</footer>\n</body>\n</html>\n";
  return out;
}

std::string render_report_html(const RunDirData& data) {
  std::string body;
  body += "<h1>xlp run report — " + html_escape(data.dir) + "</h1>\n";

  if (data.stats) {
    body += "<h2>Simulation stats</h2>\n<table>\n"
            "<tr><th>metric</th><th>value</th></tr>\n";
    stats_rows(*data.stats, "", body);
    body += "</table>\n";
  }

  std::vector<ChartSeries> recorded;
  if (data.series) recorded = chart_series_from_json(*data.series);
  if (!recorded.empty()) {
    body += "<h2>Time series</h2>\n";
    for (const ChartSeries& s : recorded)
      body += svg_line_chart(s.name, {s});
  }

  if (data.heatmap) {
    body += "<h2>Channel utilization heatmap</h2>\n";
    body += svg_channel_heatmap(*data.heatmap);
  }

  // Per-request end-to-end latency over server uptime and the dedup
  // outcome tally, from the lifecycle of xlpd's ledger records.
  ChartSeries e2e;
  e2e.name = "end_to_end_ms";
  std::map<std::string, long> outcomes;
  for (const Json& record : data.ledger) {
    const Json* lifecycle = record.find("lifecycle");
    if (lifecycle == nullptr || !lifecycle->is_object()) continue;
    e2e.points.emplace_back(
        field_number(*lifecycle, "received_s", 0.0),
        field_number(*lifecycle, "end_to_end_ns", 0.0) / 1e6);
    const Json* outcome = lifecycle->find("outcome");
    ++outcomes[outcome != nullptr && outcome->is_string()
                   ? outcome->as_string()
                   : "?"];
  }
  if (data.server_stats || !outcomes.empty()) {
    body += "<h2>Server</h2>\n";
    if (data.server_stats) {
      // The dedup funnel and operational counters from the final stats
      // snapshot, then one histogram chart per request stage.
      body += "<table>\n<tr><th>metric</th><th>value</th></tr>\n";
      stats_rows(*data.server_stats, "", body);
      body += "</table>\n";
      if (const Json* latency = data.server_stats->find("latency");
          latency != nullptr && latency->is_object()) {
        for (const auto& [stage, hist] : latency->members())
          body += svg_latency_histogram(stage, hist);
      }
    }
    if (!outcomes.empty()) {
      body += svg_line_chart("request end-to-end latency (ms)", {e2e});
      body += "<table>\n<tr><th>outcome</th><th>requests</th></tr>\n";
      for (const auto& [outcome, n] : outcomes)
        body += "<tr><td>" + html_escape(outcome) + "</td><td class=\"num\">" +
                std::to_string(n) + "</td></tr>\n";
      body += "</table>\n";
    }
  }

  if (!data.trace_phases.empty()) {
    body += "<h2>Trace phases</h2>\n<table>\n"
            "<tr><th>phase</th><th>events</th><th>first s</th>"
            "<th>last s</th><th>span s</th></tr>\n";
    for (const auto& [phase, stat] : data.trace_phases)
      body += "<tr><td>" + html_escape(phase) + "</td><td class=\"num\">" +
              std::to_string(stat.events) + "</td><td class=\"num\">" +
              fmt(stat.first_ts) + "</td><td class=\"num\">" +
              fmt(stat.last_ts) + "</td><td class=\"num\">" +
              fmt(stat.last_ts - stat.first_ts) + "</td></tr>\n";
    body += "</table>\n";
  }

  if (data.profile && data.profile->is_array()) {
    body += "<h2>Profiler</h2>\n<table>\n"
            "<tr><th>scope</th><th>hits</th><th>inclusive &micro;s</th>"
            "<th>exclusive &micro;s</th></tr>\n";
    for (std::size_t i = 0; i < data.profile->size(); ++i) {
      const Json& row = data.profile->at(i);
      const long depth = static_cast<long>(field_number(row, "depth", 0));
      std::string indent;
      for (long d = 0; d < depth; ++d)
        indent += "<span class=\"depth\">&middot;&nbsp;</span>";
      const Json* name = row.find("name");
      body += "<tr><td>" + indent +
              html_escape(name != nullptr && name->is_string()
                              ? name->as_string()
                              : "?") +
              "</td><td class=\"num\">" +
              fmt(field_number(row, "hits", 0)) + "</td><td class=\"num\">" +
              fmt(field_number(row, "inclusive_us", 0)) +
              "</td><td class=\"num\">" +
              fmt(field_number(row, "exclusive_us", 0)) + "</td></tr>\n";
    }
    body += "</table>\n";
  }

  if (data.metrics) {
    body += "<h2>Metrics</h2>\n<table>\n"
            "<tr><th>metric</th><th>value</th></tr>\n";
    if (const Json* counters = data.metrics->find("counters"))
      stats_rows(*counters, "counter", body);
    body += "</table>\n";
  }

  if (!data.ledger.empty()) {
    body += "<h2>Run ledger</h2>\n<table>\n"
            "<tr><th>run id</th><th>subcommand</th><th>seed</th>"
            "<th>git sha</th><th>wall s</th><th>exit</th><th>cache</th>"
            "<th>artifacts</th></tr>\n";
    for (const Json& rec : data.ledger) {
      const auto str = [&rec](const char* key) {
        const Json* v = rec.find(key);
        return v != nullptr && v->is_string() ? v->as_string()
                                             : std::string("?");
      };
      std::string sha = str("git_sha");
      if (sha.size() > 12) sha.resize(12);
      const Json* artifacts = rec.find("artifacts");
      body += "<tr><td><code>" + html_escape(str("run_id")) +
              "</code></td><td>" + html_escape(str("subcommand")) +
              "</td><td class=\"num\">" + fmt(field_number(rec, "seed", 0)) +
              "</td><td><code>" + html_escape(sha) +
              "</code></td><td class=\"num\">" +
              fmt(field_number(rec, "wall_seconds", 0)) +
              "</td><td class=\"num\">" +
              fmt(field_number(rec, "exit_status", 0)) + "</td><td>" +
              // svc requests carry cache_hit; direct runs omit the field.
              [&rec] {
                const Json* hit = rec.find("cache_hit");
                if (hit == nullptr || hit->type() != Json::Type::kBool)
                  return std::string();
                return std::string(hit->as_bool() ? "hit" : "miss");
              }() +
              "</td><td class=\"num\">" +
              std::to_string(artifacts != nullptr ? artifacts->size() : 0) +
              "</td></tr>\n";
    }
    body += "</table>\n";
  }

  return html_page("xlp report — " + data.dir, body);
}

}  // namespace xlp::obs
