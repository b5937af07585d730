#include "telemetry/metric.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/registry.h"

namespace fcp::telemetry {
namespace {

TEST(TelemetryTest, CounterIncrements) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(TelemetryTest, GaugeSetAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
}

TEST(TelemetryTest, CounterConcurrentIncrements) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), 40000u);
}

TEST(TelemetryHistogramTest, BucketOfIsBitWidth) {
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1023), 10u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1024), 11u);
  EXPECT_EQ(LatencyHistogram::BucketOf(~uint64_t{0}), 64u);
}

TEST(TelemetryHistogramTest, BucketUpperBoundCoversBucket) {
  // Bucket b holds values v with bit_width(v) == b; its upper bound must be
  // the largest such v.
  for (size_t b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
    const uint64_t ub = HistogramSnapshot::BucketUpperBound(b);
    EXPECT_EQ(LatencyHistogram::BucketOf(ub), b);
    if (ub != ~uint64_t{0}) {
      EXPECT_EQ(LatencyHistogram::BucketOf(ub + 1), b + 1);
    }
  }
}

TEST(TelemetryHistogramTest, EmptySnapshot) {
  LatencyHistogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.Percentile(50), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(TelemetryHistogramTest, SingleSample) {
  LatencyHistogram h;
  h.Record(100);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, 1u);
  EXPECT_EQ(snap.sum, 100u);
  // 100 lands in bucket 7 ([64, 128)); every percentile reports its upper
  // bound 127 — within the 2x relative error contract.
  EXPECT_EQ(snap.Percentile(0), 127.0);
  EXPECT_EQ(snap.Percentile(99), 127.0);
  EXPECT_EQ(snap.Mean(), 100.0);
}

TEST(TelemetryHistogramTest, PercentilesOnKnownDistribution) {
  LatencyHistogram h;
  // 90 values of 1 (bucket 1, ub 1) and 10 of 1000 (bucket 10, ub 1023).
  for (int i = 0; i < 90; ++i) h.Record(1);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, 100u);
  EXPECT_EQ(snap.Percentile(50), 1.0);
  EXPECT_EQ(snap.Percentile(89), 1.0);
  EXPECT_EQ(snap.Percentile(99), 1023.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), (90.0 * 1 + 10.0 * 1000) / 100.0);
}

TEST(TelemetryHistogramTest, MergeAccumulates) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(1);
  a.Record(1);
  b.Record(1000);
  HistogramSnapshot snap = a.Snapshot();
  snap.Merge(b.Snapshot());
  EXPECT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.sum, 1002u);
  EXPECT_EQ(snap.Percentile(50), 1.0);
  EXPECT_EQ(snap.Percentile(100), 1023.0);
}

TEST(TelemetryTest, RegistryReturnsStablePointers) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("fcp_a_total");
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("fcp_pad_" + std::to_string(i) + "_total");
  }
  EXPECT_EQ(registry.GetCounter("fcp_a_total"), a);
  a->Increment(7);
  EXPECT_EQ(registry.size(), 101u);
  const std::vector<MetricSample> samples = registry.Snapshot();
  EXPECT_EQ(samples.size(), 101u);
  EXPECT_EQ(samples[0].name, "fcp_a_total");
  EXPECT_EQ(samples[0].counter_value, 7u);
}

TEST(TelemetryTest, RegistryConcurrentRegistrationAndSnapshot) {
  MetricRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 200; ++i) {
        Counter* c = registry.GetCounter(
            "fcp_t" + std::to_string(t % 2) + "_" + std::to_string(i) +
            "_total");
        c->Increment();
        registry.Snapshot();
      }
    });
  }
  for (auto& t : threads) t.join();
  // 2 name groups x 200 names; each name incremented once by 2 threads.
  EXPECT_EQ(registry.size(), 400u);
  uint64_t total = 0;
  for (const MetricSample& s : registry.Snapshot()) total += s.counter_value;
  EXPECT_EQ(total, 800u);
}

TEST(TelemetryTest, RegistryTypeMismatchAborts) {
  MetricRegistry registry;
  registry.GetCounter("fcp_x_total");
  EXPECT_DEATH(registry.GetGauge("fcp_x_total"), "FCP_CHECK");
}

TEST(TelemetrySerializerTest, JsonParsesAndEscapes) {
  MetricRegistry registry;
  registry.GetCounter("fcp_events_total")->Increment(5);
  registry.GetGauge("fcp_depth")->Set(-2);
  registry.GetCounter("fcp_routed_total{shard=\"0\"}")->Increment(3);
  registry.GetHistogram("fcp_lat_us")->Record(10);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"fcp_events_total\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"fcp_depth\": -2"), std::string::npos);
  // The label block's quotes must be escaped in the JSON key.
  EXPECT_NE(json.find("fcp_routed_total{shard=\\\"0\\\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(TelemetrySerializerTest, PrometheusTextExposition) {
  MetricRegistry registry;
  registry.GetCounter("fcp_events_total")->Increment(12);
  registry.GetGauge("fcp_queue_depth")->Set(4);
  registry.GetCounter("fcp_routed_total{shard=\"0\"}")->Increment(7);
  registry.GetCounter("fcp_routed_total{shard=\"1\"}")->Increment(9);
  LatencyHistogram* h = registry.GetHistogram("fcp_lat_us");
  h->Record(1);
  h->Record(1);
  h->Record(100);
  const std::string prom = registry.ToPrometheus();

  // Typed family headers, one per family (label variants share one).
  EXPECT_NE(prom.find("# TYPE fcp_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE fcp_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE fcp_routed_total counter\n"),
            std::string::npos);
  EXPECT_EQ(prom.find("# TYPE fcp_routed_total counter",
                      prom.find("# TYPE fcp_routed_total counter") + 1),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE fcp_lat_us histogram\n"), std::string::npos);

  // Sample lines.
  EXPECT_NE(prom.find("fcp_events_total 12\n"), std::string::npos);
  EXPECT_NE(prom.find("fcp_queue_depth 4\n"), std::string::npos);
  EXPECT_NE(prom.find("fcp_routed_total{shard=\"0\"} 7\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fcp_routed_total{shard=\"1\"} 9\n"),
            std::string::npos);

  // Histogram expansion: cumulative buckets, +Inf == _count, and _sum.
  EXPECT_NE(prom.find("fcp_lat_us_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("fcp_lat_us_bucket{le=\"127\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fcp_lat_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fcp_lat_us_sum 102\n"), std::string::npos);
  EXPECT_NE(prom.find("fcp_lat_us_count 3\n"), std::string::npos);

  // Counters are monotone: a second snapshot after more increments never
  // shows a smaller value.
  registry.GetCounter("fcp_events_total")->Increment();
  EXPECT_NE(registry.ToPrometheus().find("fcp_events_total 13\n"),
            std::string::npos);
}

TEST(TelemetrySerializerTest, HistogramBucketsAreCumulative) {
  MetricRegistry registry;
  LatencyHistogram* h = registry.GetHistogram("fcp_lat_us");
  for (int i = 0; i < 5; ++i) h->Record(1);    // bucket 1
  for (int i = 0; i < 3; ++i) h->Record(2);    // bucket 2
  for (int i = 0; i < 2; ++i) h->Record(100);  // bucket 7
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("fcp_lat_us_bucket{le=\"1\"} 5\n"), std::string::npos);
  EXPECT_NE(prom.find("fcp_lat_us_bucket{le=\"3\"} 8\n"), std::string::npos);
  EXPECT_NE(prom.find("fcp_lat_us_bucket{le=\"127\"} 10\n"),
            std::string::npos);
}

TEST(TelemetrySerializerTest, LabelValueEscaping) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(EscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(FormatLabel("path", "C:\\tmp"), "path=\"C:\\\\tmp\"");

  // JSON strings escape every control byte; none is written raw.
  std::string json;
  AppendJsonString(&json, "Coo\x01Mine\n\t\"\\");
  EXPECT_EQ(json, "\"Coo\\u0001Mine\\n\\t\\\"\\\\\"");
}

TEST(TelemetrySerializerTest, EscapedLabelValuesSurvivePrometheusAndJson) {
  // A label value carrying a quote, a backslash and a newline must round
  // out of both serializers as one valid line / one valid JSON document
  // (the 0.0.4 text format escapes exactly those three characters).
  MetricRegistry registry;
  const std::string label = FormatLabel("source", "say \"hi\"\\\n");
  registry.GetCounter("fcp_tagged_total{" + label + "}")->Increment(2);

  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(
      prom.find("fcp_tagged_total{source=\"say \\\"hi\\\"\\\\\\n\"} 2\n"),
      std::string::npos);
  // No raw newline inside any sample line: every '\n' in the output ends a
  // complete line that starts with '#' or the metric name.
  size_t start = 0;
  while (start < prom.size()) {
    size_t end = prom.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = prom.substr(start, end - start);
    EXPECT_TRUE(line.empty() || line[0] == '#' ||
                line.rfind("fcp_", 0) == 0)
        << "torn line: " << line;
    start = end + 1;
  }

  const std::string json = registry.ToJson();
  // The JSON key escapes the label's quotes and backslashes and encodes the
  // newline as \n — never a raw control character.
  EXPECT_EQ(json.find('\n', json.find("fcp_tagged_total")),
            json.find("\": 2", json.find("fcp_tagged_total")) + 4);
  EXPECT_NE(json.find("\\\\n"), std::string::npos);
}

TEST(TelemetryReporterTest, StopEmitsFinalReportToFile) {
  MetricRegistry registry;
  registry.GetCounter("fcp_done_total")->Increment(3);
  const std::string path = ::testing::TempDir() + "/reporter_test.json";
  ASSERT_TRUE(WriteMetricsReport(registry, ReportFormat::kJson, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  EXPECT_NE(std::string(buf).find("\"fcp_done_total\": 3"),
            std::string::npos);

  // The Prometheus rendering of the same registry replaces the file whole.
  ASSERT_TRUE(WriteMetricsReport(registry, ReportFormat::kPrometheus, path));
  f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  const size_t m = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[m] = '\0';
  EXPECT_EQ(std::string(buf), registry.ToPrometheus());
}

TEST(TelemetrySerializerTest, EmptyHistogramSerializesInBothFormats) {
  // A histogram that never recorded must still expand to a complete, valid
  // family: scrapers treat a missing _count as a broken exposition.
  MetricRegistry registry;
  registry.GetHistogram("fcp_idle_us");
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE fcp_idle_us histogram\n"), std::string::npos);
  EXPECT_NE(prom.find("fcp_idle_us_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fcp_idle_us_sum 0\n"), std::string::npos);
  EXPECT_NE(prom.find("fcp_idle_us_count 0\n"), std::string::npos);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 0"), std::string::npos);
}

TEST(TelemetryHistogramTest, PercentileOnZeroSamplesIsZeroAtEveryRank) {
  const HistogramSnapshot empty{};
  EXPECT_EQ(empty.Percentile(0), 0.0);
  EXPECT_EQ(empty.Percentile(50), 0.0);
  EXPECT_EQ(empty.Percentile(100), 0.0);
  // Out-of-range ranks clamp rather than misbehave, empty or not.
  EXPECT_EQ(empty.Percentile(-10), 0.0);
  EXPECT_EQ(empty.Percentile(1000), 0.0);
}

TEST(TelemetrySerializerTest, CounterNearUint64MaxSerializesExactly) {
  // A counter one below and at the uint64 ceiling must round-trip digit
  // for digit — any double conversion in the serializer would round
  // 2^64-1 and corrupt rate() math on the scraper side.
  MetricRegistry registry;
  Counter* c = registry.GetCounter("fcp_big_total");
  c->Increment(~uint64_t{0} - 1);
  EXPECT_NE(registry.ToPrometheus().find(
                "fcp_big_total 18446744073709551614\n"),
            std::string::npos);
  EXPECT_NE(registry.ToJson().find(
                "\"fcp_big_total\": 18446744073709551614"),
            std::string::npos);
  c->Increment();
  EXPECT_EQ(c->Value(), ~uint64_t{0});
  EXPECT_NE(registry.ToPrometheus().find(
                "fcp_big_total 18446744073709551615\n"),
            std::string::npos);
}

TEST(TelemetryReporterTest, FileReportIsRenamedAtomically) {
  // WriteMetricsReport writes <path>.tmp then rename(2)s it over <path>: a
  // reader polling the path never sees a torn document, and no temp file
  // survives.
  MetricRegistry registry;
  registry.GetCounter("fcp_atomic_total")->Increment(7);
  const std::string path = ::testing::TempDir() + "/reporter_rename.json";
  ASSERT_TRUE(WriteMetricsReport(registry, ReportFormat::kJson, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  EXPECT_NE(std::string(buf).find("\"fcp_atomic_total\": 7"),
            std::string::npos);
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "r"), nullptr);
  // An unwritable path is reported, not ignored.
  EXPECT_FALSE(WriteMetricsReport(registry, ReportFormat::kJson,
                                  ::testing::TempDir() + "/no/such/dir.json"));
}

}  // namespace
}  // namespace fcp::telemetry
