// Tests of the report renderer: HTML escaping, the SVG chart and heatmap
// builders, content-based run-directory classification, and the contract
// that the rendered dashboard is self-contained and names every recorded
// series.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "obs/histogram.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"

namespace xlp::obs {
namespace {

namespace fs = std::filesystem;

TEST(HtmlEscape, EscapesMarkupCharacters) {
  EXPECT_EQ(html_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
  EXPECT_EQ(html_escape("plain"), "plain");
}

TEST(SvgLineChart, ContainsTitleLegendAndLine) {
  const ChartSeries s{"sim.load", {{0, 1}, {10, 2}, {20, 1.5}}};
  const std::string svg = svg_line_chart("Load", {s});
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("Load"), std::string::npos);
  EXPECT_NE(svg.find("sim.load"), std::string::npos);
  EXPECT_NE(svg.find("polyline"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgLineChart, EmptySeriesRenderPlaceholder) {
  const std::string svg = svg_line_chart("Empty", {});
  EXPECT_NE(svg.find("no data"), std::string::npos);
}

TEST(SvgHeatmap, RendersEveryChannelWithBoundedUtilization) {
  Json channels = Json::array();
  channels.push(Json::object()
                    .set("src", 0)
                    .set("dst", 1)
                    .set("length", 1)
                    .set("flits", 10L)
                    .set("utilization", 0.25));
  channels.push(Json::object()
                    .set("src", 1)
                    .set("dst", 0)
                    .set("length", 1)
                    .set("flits", 40L)
                    .set("utilization", 1.0));
  const Json event = Json::object()
                         .set("measured_cycles", 40L)
                         .set("width", 2)
                         .set("height", 1)
                         .set("channels", std::move(channels));
  const std::string svg = svg_channel_heatmap(event);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  // One <line> per directed channel plus the legend swatches.
  std::size_t lines = 0;
  for (std::size_t pos = svg.find("<line"); pos != std::string::npos;
       pos = svg.find("<line", pos + 1))
    ++lines;
  EXPECT_GE(lines, 2u);
}

TEST(Report, NamesEverySeriesAndIsSelfContained) {
  SeriesRecorder rec(32);
  for (int i = 0; i < 100; ++i) {
    rec.append("sim.injected_flits", i, i * 0.5);
    rec.append("sa.best", i, 100.0 - i);
  }
  RunDirData data;
  data.dir = "rundir";
  data.series = rec.to_json();
  data.stats = Json::object()
                   .set("packets_offered", 100L)
                   .set("latency", Json::object().set("avg", 12.5));
  LedgerEntry entry;
  entry.subcommand = "run";
  entry.seed = 3;
  data.ledger.push_back(entry.to_json());

  const std::string html = render_report_html(data);
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  for (const char* expected :
       {"sim.injected_flits", "sa.best", "Time series", "Run ledger",
        "packets_offered", "</html>"})
    EXPECT_NE(html.find(expected), std::string::npos) << expected;
  // Self-contained: no scripts, no external fetches.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

TEST(CollectRunDir, ClassifiesFilesByContent) {
  const fs::path dir = fs::path(::testing::TempDir()) / "xlp_collect_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);

  SeriesRecorder rec(16);
  rec.append("sim.load", 0, 1.0);
  // Deliberately unhelpful filenames: classification is by content.
  ASSERT_TRUE(rec.write_json_file((dir / "a.json").string()));
  {
    std::ofstream out(dir / "b.json");
    out << "{\"packets_offered\":5,\"latency\":{\"avg\":2.0}}\n";
  }
  LedgerEntry entry;
  entry.subcommand = "simulate";
  ASSERT_TRUE(
      append_ledger_entry((dir / "ledger.jsonl").string(), entry));
  {
    std::ofstream out(dir / "trace.jsonl");
    out << "{\"ts\":0,\"event\":\"sim.channel_utilization\","
           "\"width\":2,\"channels\":[]}\n"
        << "not json at all\n";
  }

  const RunDirData data = collect_run_dir(dir.string());
  ASSERT_TRUE(data.series.has_value());
  ASSERT_TRUE(data.stats.has_value());
  EXPECT_EQ(data.ledger.size(), 1u);
  ASSERT_TRUE(data.heatmap.has_value());
  EXPECT_EQ(data.heatmap->find("width")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(data.stats->find("latency")->find("avg")->as_number(),
                   2.0);
}

TEST(CollectRunDir, GroupsTraceEventsByPhase) {
  const fs::path dir = fs::path(::testing::TempDir()) / "xlp_phase_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "trace.jsonl");
    out << "{\"ts\":0.5,\"event\":\"run.status\",\"phase\":\"solve\"}\n"
        << "{\"ts\":1.5,\"event\":\"run.status\",\"phase\":\"solve\"}\n"
        << "{\"ts\":2.0,\"event\":\"run.status\",\"phase\":\"simulate\"}\n"
        << "{\"ts\":3.0,\"event\":\"sim.done\"}\n"
        << "{\"event\":\"no.timestamp\"}\n";
  }
  const RunDirData data = collect_run_dir(dir.string());
  ASSERT_EQ(data.trace_phases.size(), 3u);
  const TracePhase& solve = data.trace_phases.at("solve");
  EXPECT_EQ(solve.events, 2);
  EXPECT_DOUBLE_EQ(solve.first_ts, 0.5);
  EXPECT_DOUBLE_EQ(solve.last_ts, 1.5);
  EXPECT_EQ(data.trace_phases.at("simulate").events, 1);
  // No phase member: grouped under the event name.
  EXPECT_EQ(data.trace_phases.at("sim.done").events, 1);

  const std::string html = render_report_html(data);
  EXPECT_NE(html.find("Trace phases"), std::string::npos);
  EXPECT_NE(html.find("<tr><td>solve</td><td class=\"num\">2</td>"),
            std::string::npos)
      << html;
}

TEST(Report, ServerSectionComesFromLedgerLifecycles) {
  RunDirData data;
  data.dir = "svc";
  LedgerEntry served;
  served.subcommand = "svc";
  for (const char* outcome : {"miss", "batch", "batch", "cache"}) {
    served.lifecycle = LedgerEntry::Lifecycle{outcome, false, 0.25, 0, 0,
                                              2'000'000};
    data.ledger.push_back(served.to_json());
  }
  LedgerEntry cli;  // a CLI record has no lifecycle and is not tallied
  cli.subcommand = "solve";
  data.ledger.push_back(cli.to_json());
  // The final `xlpd --stats-json` snapshot adds one chart per histogram.
  Histogram end_to_end;
  for (long ns = 1000; ns <= 4'000'000; ns *= 2) end_to_end.record(ns);
  data.server_stats = Json::object().set("kind", "stats").set(
      "latency", Json::object().set("end_to_end", end_to_end.to_json()));

  const std::string html = render_report_html(data);
  EXPECT_NE(html.find("<h2>Server</h2>"), std::string::npos);
  EXPECT_NE(html.find("request end-to-end latency (ms)"), std::string::npos);
  EXPECT_NE(html.find("end_to_end &mdash; 12 samples, p50 "),
            std::string::npos)
      << html;
  for (const char* row :
       {"<tr><td>batch</td><td class=\"num\">2</td></tr>",
        "<tr><td>cache</td><td class=\"num\">1</td></tr>",
        "<tr><td>miss</td><td class=\"num\">1</td></tr>"})
    EXPECT_NE(html.find(row), std::string::npos) << row;

  data.ledger = {cli.to_json()};
  data.server_stats.reset();
  EXPECT_EQ(render_report_html(data).find("<h2>Server</h2>"),
            std::string::npos);
}

TEST(CollectRunDir, MissingDirectoryIsEmptyNotFatal) {
  const RunDirData data = collect_run_dir("/nonexistent/xlp_run_dir");
  EXPECT_FALSE(data.series.has_value());
  EXPECT_TRUE(data.ledger.empty());
}

}  // namespace
}  // namespace xlp::obs
