#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ids/analyzer.hpp"
#include "ids/monitor.hpp"
#include "telemetry/registry.hpp"
#include "util/strfmt.hpp"
#include "../telemetry/instrument_values.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::SimTime;

/// A lone detection is submitted as a run of one.
void submit_one(Analyzer& analyzer, const Detection& detection) {
  analyzer.submit_batch(&detection, 1);
}

Detection detection(std::uint64_t flow, const std::string& rule,
                    int severity = 3,
                    Ipv4 src = Ipv4(198, 51, 100, 1)) {
  Detection d;
  d.flow_id = flow;
  d.tuple.src_ip = src;
  d.tuple.dst_ip = Ipv4(10, 0, 0, 2);
  d.rule = rule;
  d.confidence = 0.9;
  d.severity = severity;
  return d;
}

TEST(AnalyzerTest, EmitsReportPerFlow) {
  netsim::Simulator sim;
  Analyzer analyzer(sim, AnalyzerConfig{});
  std::vector<ThreatReport> reports;
  analyzer.set_on_report([&](const ThreatReport& r) {
    reports.push_back(r);
  });
  submit_one(analyzer, detection(1, "rule-a"));
  submit_one(analyzer, detection(2, "rule-b"));
  sim.run_until();
  EXPECT_EQ(reports.size(), 2u);
  EXPECT_EQ(analyzer.stats().reports_out, 2u);
}

TEST(AnalyzerTest, MergesSameFlowWithinWindow) {
  netsim::Simulator sim;
  AnalyzerConfig cfg;
  cfg.correlation_window = SimTime::from_sec(10);
  Analyzer analyzer(sim, cfg);
  std::vector<ThreatReport> reports;
  analyzer.set_on_report([&](const ThreatReport& r) {
    reports.push_back(r);
  });
  submit_one(analyzer, detection(1, "rule-a"));
  submit_one(analyzer, detection(1, "rule-b"));
  submit_one(analyzer, detection(1, "rule-c"));
  sim.run_until();
  EXPECT_EQ(reports.size(), 1u);
  EXPECT_EQ(analyzer.stats().merged, 2u);
}

TEST(AnalyzerTest, SameFlowAfterWindowReportsAgain) {
  netsim::Simulator sim;
  AnalyzerConfig cfg;
  cfg.correlation_window = SimTime::from_sec(1);
  Analyzer analyzer(sim, cfg);
  int reports = 0;
  analyzer.set_on_report([&](const ThreatReport&) { ++reports; });
  submit_one(analyzer, detection(1, "rule-a"));
  sim.run_until();
  sim.schedule_at(SimTime::from_sec(5),
                  [&] { submit_one(analyzer, detection(1, "rule-a")); });
  sim.run_until();
  EXPECT_EQ(reports, 2);
}

TEST(AnalyzerTest, OffenderEscalation) {
  netsim::Simulator sim;
  AnalyzerConfig cfg;
  cfg.escalation_rule_count = 3;
  Analyzer analyzer(sim, cfg);
  std::vector<ThreatReport> reports;
  analyzer.set_on_report([&](const ThreatReport& r) {
    reports.push_back(r);
  });
  // Three distinct rules from one source in the window: escalate.
  submit_one(analyzer, detection(1, "rule-a", 3));
  submit_one(analyzer, detection(2, "rule-b", 3));
  submit_one(analyzer, detection(3, "rule-c", 3));
  sim.run_until();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].severity, 3);
  EXPECT_EQ(reports[2].severity, 4);  // escalated
  EXPECT_GE(analyzer.stats().escalations, 1u);
}

TEST(AnalyzerTest, TransferDelayDelaysReports) {
  netsim::Simulator sim;
  AnalyzerConfig cfg;
  cfg.transfer_delay = SimTime::from_ms(50);
  Analyzer analyzer(sim, cfg);
  SimTime reported_at;
  analyzer.set_on_report([&](const ThreatReport& r) {
    reported_at = r.when;
  });
  submit_one(analyzer, detection(1, "rule-a"));
  sim.run_until();
  EXPECT_GE(reported_at, SimTime::from_ms(50));
}

TEST(AnalyzerTest, StorageGrowsPerDetection) {
  netsim::Simulator sim;
  AnalyzerConfig cfg;
  cfg.bytes_per_detection = 512;
  Analyzer analyzer(sim, cfg);
  analyzer.set_on_report([](const ThreatReport&) {});
  for (int i = 0; i < 10; ++i) {
    submit_one(analyzer, detection(static_cast<std::uint64_t>(i), "r"));
  }
  sim.run_until();
  EXPECT_EQ(analyzer.stats().bytes_stored, 5120u);
}

TEST(AnalyzerTest, RunMatchesRunsOfOne) {
  // A run mixing a repeated flow (merged), a new flow and three rules
  // from one offender (escalated) lands on the same counters, reports,
  // telemetry and analysis order as the same detections one at a time.
  struct Outcome {
    AnalyzerStats stats;
    std::vector<std::string> reports;
    std::map<std::string, double> telemetry;
  };
  auto drive = [](bool one_run) {
    telemetry::Registry reg;
    telemetry::ScopedRegistry scope(&reg);
    netsim::Simulator sim;
    AnalyzerConfig cfg;
    cfg.escalation_rule_count = 2;
    Analyzer analyzer(sim, cfg);
    Outcome out;
    analyzer.set_on_report([&](const ThreatReport& r) {
      out.reports.push_back(util::cat(r.primary.flow_id, ":", r.primary.rule,
                                      ":", r.severity, "@",
                                      r.when.sec()));
    });
    const std::vector<Detection> run = {
        detection(1, "rule-a"), detection(1, "rule-b"),
        detection(2, "rule-c"), detection(3, "rule-a"),
        detection(4, "rule-d", 3, Ipv4(198, 51, 100, 7))};
    if (one_run) {
      analyzer.submit_batch(run.data(), run.size());
    } else {
      for (const Detection& d : run) submit_one(analyzer, d);
    }
    sim.run_until();
    out.stats = analyzer.stats();
    out.telemetry = telemetry::instrument_values(reg);
    return out;
  };
  const Outcome run = drive(true);
  const Outcome singles = drive(false);
  EXPECT_EQ(run.stats.detections_in, 5u);
  EXPECT_EQ(run.stats.merged, 1u);
  EXPECT_GT(run.stats.escalations, 0u);
  EXPECT_EQ(run.stats.detections_in, singles.stats.detections_in);
  EXPECT_EQ(run.stats.reports_out, singles.stats.reports_out);
  EXPECT_EQ(run.stats.merged, singles.stats.merged);
  EXPECT_EQ(run.stats.escalations, singles.stats.escalations);
  EXPECT_EQ(run.stats.bytes_stored, singles.stats.bytes_stored);
  ASSERT_EQ(run.reports.size(), 4u);
  EXPECT_EQ(run.reports, singles.reports);
  EXPECT_EQ(run.telemetry, singles.telemetry);
}

TEST(MonitorTest, RaisesAlertAfterNotificationDelay) {
  netsim::Simulator sim;
  MonitorConfig cfg;
  cfg.notification_delay = SimTime::from_ms(200);
  Monitor monitor(sim, cfg);
  ThreatReport report;
  report.primary = detection(1, "rule-a", 4);
  report.severity = 4;
  report.when = sim.now();
  monitor.submit(report);
  EXPECT_TRUE(monitor.log().empty());  // not yet raised
  sim.run_until();
  ASSERT_EQ(monitor.log().size(), 1u);
  EXPECT_EQ(monitor.log()[0].raised, SimTime::from_ms(200));
  EXPECT_EQ(monitor.stats().alerts_raised, 1u);
}

TEST(MonitorTest, SeverityFloorSuppresses) {
  netsim::Simulator sim;
  MonitorConfig cfg;
  cfg.min_severity = 3;
  Monitor monitor(sim, cfg);
  ThreatReport low;
  low.primary = detection(1, "noise", 1);
  low.severity = 2;
  monitor.submit(low);
  sim.run_until();
  EXPECT_TRUE(monitor.log().empty());
  EXPECT_EQ(monitor.stats().suppressed_severity, 1u);
}

TEST(MonitorTest, DuplicateFlowSuppressed) {
  netsim::Simulator sim;
  Monitor monitor(sim, MonitorConfig{});
  ThreatReport report;
  report.primary = detection(1, "rule-a", 4);
  report.severity = 4;
  monitor.submit(report);
  monitor.submit(report);
  sim.run_until();
  EXPECT_EQ(monitor.log().size(), 1u);
  EXPECT_EQ(monitor.stats().suppressed_duplicate, 1u);
  EXPECT_TRUE(monitor.alerted_flows().contains(1u));
}

TEST(MonitorTest, AlertCallbackFires) {
  netsim::Simulator sim;
  Monitor monitor(sim, MonitorConfig{});
  std::vector<Alert> alerts;
  monitor.set_on_alert([&](const Alert& a) { alerts.push_back(a); });
  ThreatReport report;
  report.primary = detection(5, "rule-x", 5);
  report.severity = 5;
  report.correlated_count = 3;
  monitor.submit(report);
  sim.run_until();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].flow_id, 5u);
  EXPECT_EQ(alerts[0].severity, 5);
  EXPECT_EQ(alerts[0].correlated_count, 3);
  EXPECT_GT(alerts[0].id, 0u);
}

TEST(MonitorTest, EscalatedSeverityReRaisesSameFlow) {
  // A later, more severe verdict on an already-alerted flow must reach
  // the operator (and the console's block policy); equal or lower
  // severity stays suppressed as a duplicate.
  netsim::Simulator sim;
  Monitor monitor(sim, MonitorConfig{});
  ThreatReport first;
  first.primary = detection(1, "weak-rule", 3);
  first.severity = 3;
  monitor.submit(first);
  sim.run_until();
  ASSERT_EQ(monitor.log().size(), 1u);

  ThreatReport equal = first;
  monitor.submit(equal);  // same severity: duplicate
  sim.run_until();
  EXPECT_EQ(monitor.log().size(), 1u);
  EXPECT_EQ(monitor.stats().suppressed_duplicate, 1u);

  ThreatReport escalated;
  escalated.primary = detection(1, "critical-rule", 5);
  escalated.severity = 5;
  monitor.submit(escalated);
  sim.run_until();
  ASSERT_EQ(monitor.log().size(), 2u);
  EXPECT_EQ(monitor.log()[1].severity, 5);
  // The flow set (Figure 3's D) still counts the flow once.
  EXPECT_EQ(monitor.alerted_flows().size(), 1u);
}

TEST(MonitorTest, ClearResetsEverything) {
  netsim::Simulator sim;
  Monitor monitor(sim, MonitorConfig{});
  ThreatReport report;
  report.primary = detection(1, "rule-a", 4);
  report.severity = 4;
  monitor.submit(report);
  sim.run_until();
  monitor.clear();
  EXPECT_TRUE(monitor.log().empty());
  EXPECT_TRUE(monitor.alerted_flows().empty());
  EXPECT_EQ(monitor.stats().alerts_raised, 0u);
}

TEST(DetectionMethodTest, Names) {
  EXPECT_EQ(to_string(DetectionMethod::kSignature), "signature");
  EXPECT_EQ(to_string(DetectionMethod::kAnomaly), "anomaly");
}

}  // namespace
}  // namespace idseval::ids
