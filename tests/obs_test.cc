// Observability layer: counter exactness under concurrent increments,
// histogram bucketing and percentile estimates on known distributions,
// registry get-or-create identity, scrape-time collectors, both dump
// formats — the Prometheus text round-trips through a tiny parser so a
// schema drift breaks here before it breaks a real scraper — and the
// tracer, including the on/off flag parser behind DIALGA_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace obs {
namespace {

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Counter, IncrementByN) {
  Counter c;
  c.inc(5);
  c.inc();
  c.inc(0);
  EXPECT_EQ(c.value(), 6u);
}

TEST(Gauge, SetAddMax) {
  Gauge g;
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  g.max_of(2.0);  // below current: no change
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  g.max_of(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Gauge, ConcurrentMaxOfKeepsHighWater) {
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 10000; ++i) {
        g.max_of(static_cast<double>(t * 10000 + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(g.value(), 39999.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // le=1
  h.observe(1.0);   // le=1 (bounds are inclusive upper edges)
  h.observe(3.0);   // le=4
  h.observe(100.0); // overflow
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 0u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 104.5);
}

TEST(Histogram, PercentilesOnKnownDistribution) {
  // 100 observations spread uniformly over (0, 100]; bucket width 10.
  std::vector<double> bounds;
  for (int b = 10; b <= 100; b += 10) bounds.push_back(b);
  Histogram h(bounds);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  // Interpolated estimates land within one bucket width of the truth.
  EXPECT_NEAR(s.percentile(0.50), 50.0, 10.0);
  EXPECT_NEAR(s.percentile(0.95), 95.0, 10.0);
  EXPECT_NEAR(s.percentile(0.99), 99.0, 10.0);
  // Monotone in q.
  EXPECT_LE(s.percentile(0.50), s.percentile(0.95));
  EXPECT_LE(s.percentile(0.95), s.percentile(0.99));
}

TEST(Histogram, PercentileOfEmptyIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(0.5), 0.0);
}

TEST(Histogram, OverflowPercentileReportsLastFiniteBound) {
  Histogram h({1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.observe(50.0);
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(0.99), 2.0);
}

TEST(Bounds, LaddersAreSortedAndPositive) {
  const auto lat = LatencyBounds();
  ASSERT_FALSE(lat.empty());
  EXPECT_GT(lat.front(), 0.0);
  for (std::size_t i = 1; i < lat.size(); ++i) {
    EXPECT_LT(lat[i - 1], lat[i]);
  }
  const auto pow2 = Pow2Bounds(11);
  ASSERT_EQ(pow2.size(), 12u);
  EXPECT_DOUBLE_EQ(pow2.front(), 1.0);
  EXPECT_DOUBLE_EQ(pow2.back(), 2048.0);
}

TEST(Registry, GetOrCreateReturnsSameInstance) {
  Registry reg;
  Counter& a = reg.counter("x_total", {{"op", "a"}});
  Counter& b = reg.counter("x_total", {{"op", "a"}});
  Counter& c = reg.counter("x_total", {{"op", "b"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  c.inc(1);
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].value, 3.0);  // sorted: op=a before op=b
  EXPECT_DOUBLE_EQ(samples[1].value, 1.0);
}

TEST(Registry, HelpKeptFromFirstRegistration) {
  Registry reg;
  reg.counter("y_total", {}, "first help");
  reg.counter("y_total", {}, "ignored");
  EXPECT_EQ(reg.help_for("y_total"), "first help");
}

TEST(Registry, CollectorAppendsAndRemoves) {
  Registry reg;
  int owner = 0;
  reg.add_collector(&owner, [](std::vector<Sample>& out) {
    Sample s;
    s.name = "ext_total";
    s.type = MetricType::kCounter;
    s.value = 42.0;
    out.push_back(std::move(s));
  });
  auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "ext_total");
  EXPECT_DOUBLE_EQ(samples[0].value, 42.0);
  reg.remove_collector(&owner);
  EXPECT_TRUE(reg.collect().empty());
}

TEST(Registry, ConcurrentLookupsAndIncrements) {
  Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg] {
      Counter& c = reg.counter("hot_total");
      for (int i = 0; i < 50000; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("hot_total").value(), 400000u);
}

/// Tiny Prometheus text parser: enough of the exposition format to
/// round-trip what WriteSamples emits — `name{labels} value` lines plus
/// `# TYPE` / `# HELP` comments.
struct PromParse {
  std::map<std::string, double> values;           // "name{labels}" -> value
  std::map<std::string, std::string> types;       // name -> type
  std::map<std::string, std::string> helps;       // name -> help
  bool ok = true;
};

PromParse ParseProm(const std::string& text) {
  PromParse p;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string name, type;
      if (!(ls >> name >> type)) p.ok = false;
      p.types[name] = type;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const auto sp = rest.find(' ');
      if (sp == std::string::npos) {
        p.ok = false;
        continue;
      }
      p.helps[rest.substr(0, sp)] = rest.substr(sp + 1);
      continue;
    }
    if (line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) {
      p.ok = false;
      continue;
    }
    try {
      p.values[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    } catch (...) {
      p.ok = false;
    }
  }
  return p;
}

TEST(Dump, PrometheusRoundTripsThroughParser) {
  Registry reg;
  reg.counter("rt_requests_total", {{"op", "encode"}}, "Requests").inc(7);
  reg.counter("rt_requests_total", {{"op", "decode"}}).inc(2);
  reg.gauge("rt_depth", {}, "Queue depth").set(3.5);
  Histogram& h = reg.histogram("rt_latency_seconds", {0.1, 1.0}, {}, "Lat");
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  std::ostringstream os;
  DumpMetrics(os, Format::kPrometheus, reg);
  const PromParse p = ParseProm(os.str());
  ASSERT_TRUE(p.ok) << os.str();

  EXPECT_DOUBLE_EQ(p.values.at("rt_requests_total{op=\"encode\"}"), 7.0);
  EXPECT_DOUBLE_EQ(p.values.at("rt_requests_total{op=\"decode\"}"), 2.0);
  EXPECT_DOUBLE_EQ(p.values.at("rt_depth"), 3.5);
  EXPECT_EQ(p.types.at("rt_requests_total"), "counter");
  EXPECT_EQ(p.types.at("rt_depth"), "gauge");
  EXPECT_EQ(p.types.at("rt_latency_seconds"), "histogram");
  EXPECT_EQ(p.helps.at("rt_requests_total"), "Requests");

  // Histogram exposition: cumulative buckets, +Inf == count, sum.
  EXPECT_DOUBLE_EQ(p.values.at("rt_latency_seconds_bucket{le=\"0.1\"}"), 1.0);
  EXPECT_DOUBLE_EQ(p.values.at("rt_latency_seconds_bucket{le=\"1\"}"), 2.0);
  EXPECT_DOUBLE_EQ(p.values.at("rt_latency_seconds_bucket{le=\"+Inf\"}"),
                   3.0);
  EXPECT_DOUBLE_EQ(p.values.at("rt_latency_seconds_count"), 3.0);
  EXPECT_NEAR(p.values.at("rt_latency_seconds_sum"), 5.55, 1e-9);
}

TEST(Dump, PrometheusEscapesLabelValues) {
  Registry reg;
  reg.counter("esc_total", {{"site", "a\"b\\c\nd"}}).inc();
  std::ostringstream os;
  DumpMetrics(os, Format::kPrometheus, reg);
  EXPECT_NE(os.str().find("site=\"a\\\"b\\\\c\\nd\""), std::string::npos)
      << os.str();
}

TEST(Dump, JsonLinesOneObjectPerLine) {
  Registry reg;
  reg.counter("jl_total", {{"op", "x"}}, "help").inc(4);
  Histogram& h = reg.histogram("jl_hist", {1.0, 2.0});
  h.observe(1.5);
  std::ostringstream os;
  DumpMetrics(os, Format::kJsonLines, reg);
  const std::string text = os.str();
  std::istringstream is(text);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(text.find("\"name\":\"jl_total\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":4"), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);
  EXPECT_NE(text.find("\"le\":\"+Inf\""), std::string::npos);
}

TEST(Tracer, LifecycleSpansRecordStageTimes) {
  Tracer tr;
  tr.set_enabled(true);
  const std::uint64_t id = tr.begin("encode", 8, 3, 4096);
  ASSERT_NE(id, 0u);
  tr.event(id, Stage::kQueue);
  tr.event(id, Stage::kBatch);
  tr.event(id, Stage::kExec);
  tr.annotate(id, "note-1");
  tr.finish(id, "ok");
  const auto spans = tr.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  const StripeSpan& s = spans[0];
  EXPECT_EQ(s.op, "encode");
  EXPECT_EQ(s.k, 8u);
  EXPECT_EQ(s.status, "ok");
  EXPECT_EQ(s.note, "note-1");
  EXPECT_GE(s.queue_s, 0.0);
  EXPECT_LE(s.queue_s, s.batch_s);
  EXPECT_LE(s.batch_s, s.exec_s);
  EXPECT_LE(s.exec_s, s.total_s);
}

TEST(Tracer, DisabledCostsNothingAndIdZeroNoOps) {
  Tracer tr;
  EXPECT_FALSE(tr.enabled());
  EXPECT_EQ(tr.begin("encode", 4, 2, 1024), 0u);
  tr.event(0, Stage::kQueue);  // must not crash or record
  tr.annotate(0, "x");
  tr.finish(0, "ok");
  EXPECT_TRUE(tr.snapshot().empty());
}

TEST(Tracer, SamplingTracesEveryNth) {
  Tracer tr;
  tr.set_enabled(true);
  tr.set_sample_every(3);
  std::size_t traced = 0;
  for (int i = 0; i < 9; ++i) {
    const std::uint64_t id = tr.begin("encode", 4, 2, 1024);
    if (id != 0) {
      ++traced;
      tr.finish(id, "ok");
    }
  }
  EXPECT_EQ(traced, 3u);
}

TEST(Tracer, RingEvictsOldestAndCountsDropped) {
  Tracer tr;
  tr.set_enabled(true);
  tr.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t id = tr.begin("encode", 4, 2, 1024);
    tr.finish(id, "ok");
  }
  EXPECT_EQ(tr.snapshot().size(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
}

TEST(Tracer, DumpJsonlEmitsOneLinePerSpan) {
  Tracer tr;
  tr.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t id = tr.begin("decode", 4, 2, 1024);
    tr.event(id, Stage::kQueue);
    tr.finish(id, "ok");
  }
  std::ostringstream os;
  tr.dump_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    EXPECT_NE(line.find("\"span\":\"stripe\""), std::string::npos);
    EXPECT_NE(line.find("\"op\":\"decode\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
}

// Tracer::Global() reads DIALGA_TRACE once per process, so the flag
// parser it uses is tested directly.
TEST(EnvFlag, AcceptsTheDocumentedSpellingsCaseInsensitively) {
  constexpr const char* kVar = "DIALGA_OBS_TEST_FLAG";
  for (const char* on : {"1", "true", "on", "yes", "TRUE", "On", "YES"}) {
    setenv(kVar, on, 1);
    EXPECT_TRUE(EnvFlag(kVar, false)) << on;
  }
  for (const char* off : {"0", "false", "off", "no", "FALSE", "Off", "NO"}) {
    setenv(kVar, off, 1);
    EXPECT_FALSE(EnvFlag(kVar, true)) << off;
  }
  unsetenv(kVar);
  EXPECT_TRUE(EnvFlag(kVar, true));
  EXPECT_FALSE(EnvFlag(kVar, false));
}

TEST(EnvFlag, MalformedValuePrintsOneLineAndKeepsTheDefault) {
  constexpr const char* kVar = "DIALGA_OBS_TEST_FLAG";
  for (const char* bad : {"", "2", "enable", "offf"}) {
    setenv(kVar, bad, 1);
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(EnvFlag(kVar, false)) << "'" << bad << "'";
    EXPECT_TRUE(EnvFlag(kVar, true)) << "'" << bad << "'";
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 2) << err;
    EXPECT_NE(err.find(kVar), std::string::npos) << err;
  }
  unsetenv(kVar);
}

TEST(Global, RegistryAndTracerAreStableSingletons) {
  EXPECT_EQ(&Registry::Global(), &Registry::Global());
  EXPECT_EQ(&Tracer::Global(), &Tracer::Global());
}

}  // namespace
}  // namespace obs
