// Tests for the observability layer: the metrics registry (counters,
// gauges, log-bucketed histograms, Prometheus exposition), per-request
// phase tracing, the structured logger and its rate limiter, and the
// two small parsers the serve front door rejects bad input with —
// parse_host_port and the metrics side listener's HTTP request-line
// grammar. The exposition page is checked with the same lint helper
// serve_test.cpp applies to the page fetched over the wire.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "prometheus_lint.h"
#include "serve/metrics_http.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/log.h"
#include "util/metrics.h"

namespace ambit {
namespace {

using testing_support::lint_prometheus_page;
using testing_support::prom_value;

// ---------------------------------------------------------------------------
// Counters, gauges, histograms.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeRecord) {
  if (!metrics::metrics_enabled()) {
    GTEST_SKIP() << "built with -DAMBIT_METRICS=OFF";
  }
  metrics::Counter counter;
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);

  metrics::Gauge gauge;
  gauge.set(7);
  gauge.add(3);
  gauge.sub(4);
  EXPECT_EQ(gauge.value(), 6);
  gauge.set(-2);  // gauges are signed levels, not counters
  EXPECT_EQ(gauge.value(), -2);
}

TEST(MetricsTest, RecordingCompilesOutCleanly) {
  // Whichever way AMBIT_METRICS is configured, the objects build and
  // the read side is well-defined (zeros when off).
  metrics::Counter counter;
  counter.add(5);
  metrics::Histogram histogram({1, 2, 4});
  histogram.observe(3);
  if (!metrics::metrics_enabled()) {
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(histogram.count(), 0u);
  }
}

TEST(MetricsTest, DefaultLatencyBoundsArePowersOfTwo) {
  const std::vector<std::uint64_t> bounds =
      metrics::Histogram::default_latency_bounds_us();
  ASSERT_EQ(bounds.size(), 27u);
  EXPECT_EQ(bounds.front(), 1u);
  EXPECT_EQ(bounds.back(), std::uint64_t{1} << 26);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i], bounds[i - 1] * 2);
  }
}

TEST(MetricsTest, HistogramBucketsCountAndSum) {
  if (!metrics::metrics_enabled()) {
    GTEST_SKIP() << "built with -DAMBIT_METRICS=OFF";
  }
  metrics::Histogram histogram({10, 100, 1000});
  histogram.observe(0);     // first bucket (le=10 is inclusive)
  histogram.observe(10);    // still the first bucket
  histogram.observe(11);    // second
  histogram.observe(1000);  // third
  histogram.observe(5000);  // overflow
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), 0u + 10 + 11 + 1000 + 5000);
  EXPECT_EQ(histogram.max_observed(), 5000u);
  EXPECT_EQ(histogram.bucket_counts(),
            (std::vector<std::uint64_t>{2, 1, 1, 1}));
}

TEST(MetricsTest, HistogramQuantiles) {
  if (!metrics::metrics_enabled()) {
    GTEST_SKIP() << "built with -DAMBIT_METRICS=OFF";
  }
  metrics::Histogram histogram({10, 100, 1000});
  EXPECT_EQ(histogram.quantile(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) {
    histogram.observe(5);  // le=10
  }
  for (int i = 0; i < 9; ++i) {
    histogram.observe(50);  // le=100
  }
  histogram.observe(999);  // le=1000
  // Quantiles are bucket upper bounds — exactly the resolution the
  // layout promises — but never above the largest sample.
  EXPECT_EQ(histogram.quantile(0.5), 10u);
  EXPECT_EQ(histogram.quantile(0.90), 10u);
  EXPECT_EQ(histogram.quantile(0.95), 100u);
  EXPECT_EQ(histogram.quantile(1.0), 999u);
  // A sample in the overflow bucket reports the max observed value
  // instead of a meaningless +Inf.
  histogram.observe(123456);
  EXPECT_EQ(histogram.quantile(1.0), 123456u);
}

TEST(MetricsTest, HistogramQuantileNeverExceedsTheLargestSample) {
  if (!metrics::metrics_enabled()) {
    GTEST_SKIP() << "built with -DAMBIT_METRICS=OFF";
  }
  // One sample in the default layout's 65536 bucket: the bucket bound
  // would report a p50 far above anything observed.
  metrics::Histogram histogram(
      metrics::Histogram::default_latency_bounds_us());
  histogram.observe(38871);
  EXPECT_EQ(histogram.quantile(0.5), 38871u);
  EXPECT_EQ(histogram.quantile(1.0), 38871u);
}

// ---------------------------------------------------------------------------
// Registry: registration contract and exposition.
// ---------------------------------------------------------------------------

TEST(MetricsTest, RegistrationIsIdempotent) {
  metrics::Registry registry;
  metrics::Counter& a =
      registry.counter("ambit_test_total", "help", {{"verb", "EVAL"}});
  metrics::Counter& b =
      registry.counter("ambit_test_total", "help", {{"verb", "EVAL"}});
  EXPECT_EQ(&a, &b);
  metrics::Counter& other =
      registry.counter("ambit_test_total", "help", {{"verb", "SIM"}});
  EXPECT_NE(&a, &other);

  EXPECT_EQ(registry.find_counter("ambit_test_total", {{"verb", "EVAL"}}), &a);
  EXPECT_EQ(registry.find_counter("ambit_test_total", {{"verb", "VERIFY"}}),
            nullptr);
  EXPECT_EQ(registry.find_counter("ambit_ghost_total"), nullptr);
  EXPECT_EQ(registry.find_gauge("ambit_ghost"), nullptr);
  EXPECT_EQ(registry.find_histogram("ambit_ghost_us"), nullptr);
}

TEST(MetricsTest, ExpositionPassesLintWithExactValues) {
  metrics::Registry registry;
  metrics::Counter& requests =
      registry.counter("ambit_test_requests_total", "served requests",
                       {{"verb", "EVAL"}});
  registry.counter("ambit_test_requests_total", "served requests",
                   {{"verb", "SIM"}});
  metrics::Gauge& active = registry.gauge("ambit_test_active", "live now");
  metrics::Histogram& latency = registry.histogram(
      "ambit_test_us", "latency", {10, 100, 1000}, {{"verb", "EVAL"}});
  requests.add(3);
  active.set(2);
  latency.observe(5);
  latency.observe(50);
  latency.observe(12345);

  const std::string page = registry.prometheus_text();
  const auto samples = lint_prometheus_page(page);
  if (!metrics::metrics_enabled()) {
    return;  // page still lints; values are all zero
  }
  EXPECT_EQ(prom_value(samples, "ambit_test_requests_total", "verb=\"EVAL\""),
            3.0);
  EXPECT_EQ(prom_value(samples, "ambit_test_requests_total", "verb=\"SIM\""),
            0.0);
  EXPECT_EQ(prom_value(samples, "ambit_test_active"), 2.0);
  EXPECT_EQ(prom_value(samples, "ambit_test_us_count", "verb=\"EVAL\""), 3.0);
  EXPECT_EQ(prom_value(samples, "ambit_test_us_sum", "verb=\"EVAL\""),
            5.0 + 50.0 + 12345.0);
  EXPECT_EQ(
      prom_value(samples, "ambit_test_us_bucket", "verb=\"EVAL\",le=\"10\""),
      1.0);
  EXPECT_EQ(
      prom_value(samples, "ambit_test_us_bucket", "verb=\"EVAL\",le=\"100\""),
      2.0);
  EXPECT_EQ(
      prom_value(samples, "ambit_test_us_bucket", "verb=\"EVAL\",le=\"1000\""),
      2.0);
  EXPECT_EQ(
      prom_value(samples, "ambit_test_us_bucket", "verb=\"EVAL\",le=\"+Inf\""),
      3.0);
}

TEST(MetricsTest, ExpositionEscapesLabelValues) {
  metrics::Registry registry;
  registry.counter("ambit_test_escapes_total", "label torture",
                   {{"path", "a\"b\\c\nd"}});
  const std::string page = registry.prometheus_text();
  // The lint checks the escaping grammar; round-tripping the value
  // back out proves the escapes decode to the original bytes.
  const auto samples = lint_prometheus_page(page);
  bool found = false;
  for (const auto& s : samples) {
    if (s.name == "ambit_test_escapes_total") {
      EXPECT_EQ(testing_support::prom_label_value(s.labels, "path"),
                "a\"b\\c\nd");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsTest, FamiliesRenderInSortedOrder) {
  metrics::Registry registry;
  registry.counter("ambit_zz_total", "last");
  registry.gauge("ambit_aa", "first");
  registry.histogram("ambit_mm_us", "middle", {1, 2});
  const std::string page = registry.prometheus_text();
  const std::size_t aa = page.find("# TYPE ambit_aa ");
  const std::size_t mm = page.find("# TYPE ambit_mm_us ");
  const std::size_t zz = page.find("# TYPE ambit_zz_total ");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(mm, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, mm);
  EXPECT_LT(mm, zz);
  lint_prometheus_page(page);
}

// ---------------------------------------------------------------------------
// Phase tracing.
// ---------------------------------------------------------------------------

TEST(MetricsTest, PhaseNamesAreStable) {
  // These strings are label values on ambit_serve_phase_us and keys in
  // slow-request log records — renaming one breaks dashboards.
  EXPECT_STREQ(metrics::phase_name(metrics::Phase::kParse), "parse");
  EXPECT_STREQ(metrics::phase_name(metrics::Phase::kCoalesceWait),
               "coalesce_wait");
  EXPECT_STREQ(metrics::phase_name(metrics::Phase::kQueueWait), "queue_wait");
  EXPECT_STREQ(metrics::phase_name(metrics::Phase::kEvaluate), "evaluate");
  EXPECT_STREQ(metrics::phase_name(metrics::Phase::kSerialize), "serialize");
}

TEST(MetricsTest, ScopedPhaseTimerWritesAmbientTrace) {
  if (!metrics::metrics_enabled()) {
    GTEST_SKIP() << "built with -DAMBIT_METRICS=OFF";
  }
  // No ambient trace: the timer is inert.
  EXPECT_EQ(metrics::current_trace(), nullptr);
  { const metrics::ScopedPhaseTimer inert(metrics::Phase::kParse); }

  metrics::PhaseTrace trace;
  {
    const metrics::TraceScope scope(&trace);
    EXPECT_EQ(metrics::current_trace(), &trace);
    {
      const metrics::ScopedPhaseTimer timer(metrics::Phase::kEvaluate);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Scopes nest: an inner nullptr scope suspends tracing.
    {
      const metrics::TraceScope inner(nullptr);
      EXPECT_EQ(metrics::current_trace(), nullptr);
      const metrics::ScopedPhaseTimer untraced(metrics::Phase::kParse);
    }
    EXPECT_EQ(metrics::current_trace(), &trace);
  }
  EXPECT_EQ(metrics::current_trace(), nullptr);
  EXPECT_GE(trace.get(metrics::Phase::kEvaluate), 1000u);  // >= 1 ms recorded
  EXPECT_EQ(trace.get(metrics::Phase::kParse), 0u);
}

// ---------------------------------------------------------------------------
// Structured logging.
// ---------------------------------------------------------------------------

/// Redirects the log sink to a fresh temp file for one test and
/// restores stderr (and the info threshold) on destruction.
class LogCapture {
 public:
  explicit LogCapture(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {
    std::remove(path_.c_str());
    EXPECT_TRUE(logs::set_file(path_));
  }
  ~LogCapture() {
    logs::set_file("");
    logs::set_threshold(logs::Level::kInfo);
  }

  std::string contents() const {
    std::ifstream in(path_);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

 private:
  std::string path_;
};

TEST(LogTest, ParseLevelRoundTrips) {
  EXPECT_EQ(logs::parse_level("debug"), logs::Level::kDebug);
  EXPECT_EQ(logs::parse_level("info"), logs::Level::kInfo);
  EXPECT_EQ(logs::parse_level("warn"), logs::Level::kWarn);
  EXPECT_EQ(logs::parse_level("error"), logs::Level::kError);
  EXPECT_EQ(logs::parse_level("off"), logs::Level::kOff);
  EXPECT_EQ(logs::parse_level("verbose"), std::nullopt);
  EXPECT_EQ(logs::parse_level(""), std::nullopt);
  EXPECT_STREQ(logs::level_name(logs::Level::kWarn), "warn");
}

TEST(LogTest, RecordsAreOneLineKeyValue) {
  LogCapture capture("log_kv.log");
  logs::info("conn.accept", {{"conn", "17"}, {"transport", "tcp"}});
  const std::string text = capture.contents();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_NE(text.find("level=info"), std::string::npos) << text;
  EXPECT_NE(text.find("event=conn.accept"), std::string::npos);
  EXPECT_NE(text.find("conn=17"), std::string::npos);
  EXPECT_NE(text.find("transport=tcp"), std::string::npos);
  EXPECT_NE(text.find("ts="), std::string::npos);
  EXPECT_NE(text.find("mono_us="), std::string::npos);
}

TEST(LogTest, ValuesWithSpacesOrQuotesAreQuoted) {
  LogCapture capture("log_quote.log");
  logs::warn("load.fail", {{"path", "/tmp/a b.pla"}, {"err", "x=\"y\""}});
  const std::string text = capture.contents();
  EXPECT_NE(text.find("path=\"/tmp/a b.pla\""), std::string::npos) << text;
  EXPECT_NE(text.find("err=\"x=\\\"y\\\"\""), std::string::npos) << text;
}

TEST(LogTest, ThresholdDropsRecordsBelowIt) {
  LogCapture capture("log_threshold.log");
  logs::set_threshold(logs::Level::kWarn);
  logs::debug("dropped.debug");
  logs::info("dropped.info");
  logs::warn("kept.warn");
  logs::error("kept.error");
  logs::set_threshold(logs::Level::kOff);
  logs::error("dropped.even.error");
  const std::string text = capture.contents();
  EXPECT_EQ(text.find("dropped."), std::string::npos) << text;
  EXPECT_NE(text.find("event=kept.warn"), std::string::npos);
  EXPECT_NE(text.find("event=kept.error"), std::string::npos);
}

TEST(LogTest, RateLimiterCountsSuppressedCallsExactly) {
  logs::RateLimiter limiter(/*min_interval_us=*/60'000'000);
  EXPECT_TRUE(limiter.allow());
  for (int i = 0; i < 25; ++i) {
    EXPECT_FALSE(limiter.allow());
  }
  EXPECT_EQ(limiter.take_suppressed(), 25u);
  EXPECT_EQ(limiter.take_suppressed(), 0u);  // drained
}

TEST(LogTest, WarnRateLimitedFoldsOverflowIntoNextRecord) {
  LogCapture capture("log_ratelimit.log");
  logs::RateLimiter limiter(/*min_interval_us=*/30'000);
  logs::warn_rate_limited(limiter, "frame.bad", {{"n", "0"}});
  for (int i = 1; i <= 7; ++i) {
    logs::warn_rate_limited(limiter, "frame.bad", {{"n", std::to_string(i)}});
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  logs::warn_rate_limited(limiter, "frame.bad", {{"n", "8"}});
  const std::string text = capture.contents();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2) << text;
  EXPECT_NE(text.find("suppressed=7"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// parse_host_port: every rejection names the offending spec.
// ---------------------------------------------------------------------------

TEST(HostPortTest, AcceptsWellFormedSpecs) {
  EXPECT_EQ(serve::parse_host_port("0.0.0.0:7878"),
            (std::pair<std::string, int>{"0.0.0.0", 7878}));
  EXPECT_EQ(serve::parse_host_port("localhost:0"),
            (std::pair<std::string, int>{"localhost", 0}));
  EXPECT_EQ(serve::parse_host_port("127.0.0.1:65535"),
            (std::pair<std::string, int>{"127.0.0.1", 65535}));
}

/// Asserts that parsing `spec` throws and that the error text carries
/// the spec itself — an operator reading the failure in a service log
/// must see WHICH --tcp/--metrics argument was wrong.
void expect_rejected_quoting_spec(const std::string& spec,
                                  const std::string& detail) {
  try {
    serve::parse_host_port(spec);
    FAIL() << "accepted '" << spec << "'";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + spec + "'"), std::string::npos)
        << "error for '" << spec << "' omits the spec: " << what;
    EXPECT_NE(what.find(detail), std::string::npos)
        << "error for '" << spec << "' omits '" << detail << "': " << what;
  }
}

TEST(HostPortTest, RejectionsQuoteTheOffendingSpec) {
  expect_rejected_quoting_spec("", "expected <host>:<port>");
  expect_rejected_quoting_spec("nocolon", "expected <host>:<port>");
  expect_rejected_quoting_spec(":7878", "expected <host>:<port>");
  expect_rejected_quoting_spec("host:", "expected <host>:<port>");
  expect_rejected_quoting_spec("host:abc", "is not a number");
  expect_rejected_quoting_spec("host:12x8", "is not a number");
  expect_rejected_quoting_spec("host:-1", "is not a number");
  // The overflow path must also name the port AND the spec, and must
  // trip before accumulating past what an int can hold.
  expect_rejected_quoting_spec("host:65536", "exceeds 65535");
  expect_rejected_quoting_spec("host:99999999999999999999", "exceeds 65535");
  try {
    serve::parse_host_port("host:65536");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'65536'"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// The metrics side listener's HTTP grammar (pure functions — no
// sockets; the socket path is covered end-to-end in serve_test.cpp).
// ---------------------------------------------------------------------------

TEST(MetricsHttpTest, ParsesWellFormedRequestLines) {
  const serve::HttpRequestLine get =
      serve::parse_http_request_line("GET /metrics HTTP/1.1");
  EXPECT_EQ(get.method, "GET");
  EXPECT_EQ(get.target, "/metrics");
  EXPECT_EQ(get.version, "HTTP/1.1");
  const serve::HttpRequestLine head =
      serve::parse_http_request_line("HEAD /healthz HTTP/1.0");
  EXPECT_EQ(head.method, "HEAD");
}

/// The rejection contract mirrors parse_host_port: the offending line
/// (escaped) appears in the error text.
void expect_http_rejected(const std::string& line,
                          const std::string& quoted_as) {
  try {
    serve::parse_http_request_line(line);
    FAIL() << "accepted '" << line << "'";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad HTTP request line"), std::string::npos) << what;
    EXPECT_NE(what.find("'" + quoted_as + "'"), std::string::npos)
        << "error omits the offending line: " << what;
  }
}

TEST(MetricsHttpTest, RejectionsQuoteTheOffendingLine) {
  expect_http_rejected("", "");
  expect_http_rejected("GET", "GET");
  expect_http_rejected("GET /metrics", "GET /metrics");
  expect_http_rejected("GET /metrics HTTP/1.0 extra",
                       "GET /metrics HTTP/1.0 extra");
  expect_http_rejected("GET  HTTP/1.0", "GET  HTTP/1.0");  // empty target
  expect_http_rejected("GET /metrics FTP/1.0", "GET /metrics FTP/1.0");
  expect_http_rejected("GET /metrics HTTP/", "GET /metrics HTTP/");
  expect_http_rejected("get /metrics HTTP/1.0", "get /metrics HTTP/1.0");
  // Control bytes come back escaped, not raw, so the error is safe to
  // put on one log line.
  expect_http_rejected("GET\t/metrics", "GET\\t/metrics");
  expect_http_rejected(std::string("B\x01G", 3), "B\\x01G");
}

TEST(MetricsHttpTest, LongBadLinesAreTruncatedInErrors) {
  const std::string line(500, 'A');
  try {
    serve::parse_http_request_line(line);
    FAIL();
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_LT(what.size(), 200u) << what;
    EXPECT_NE(what.find("..."), std::string::npos) << what;
  }
}

TEST(MetricsHttpTest, ResponseRouting) {
  int renders = 0;
  const auto render = [&renders] {
    ++renders;
    return std::string("# HELP x x\n# TYPE x counter\nx 1\n");
  };
  const std::string ok =
      serve::http_response("GET /metrics HTTP/1.0\r\nHost: h\r\n\r\n", render);
  EXPECT_EQ(renders, 1);
  EXPECT_NE(ok.find("HTTP/1.0 200 OK\r\n"), std::string::npos) << ok;
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(ok.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(ok.find("\r\n\r\n# HELP x x\n"), std::string::npos);
  // Content-Length matches the body exactly.
  const std::string body = ok.substr(ok.find("\r\n\r\n") + 4);
  EXPECT_NE(ok.find("Content-Length: " + std::to_string(body.size())),
            std::string::npos)
      << ok;

  // Cache-busting query strings still reach the page.
  EXPECT_NE(serve::http_response("GET /metrics?ts=1 HTTP/1.1\r\n\r\n", render)
                .find("200 OK"),
            std::string::npos);
  EXPECT_EQ(renders, 2);

  const std::string health =
      serve::http_response("GET /healthz HTTP/1.0\r\n\r\n", render);
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);
  EXPECT_EQ(renders, 2);  // /healthz never builds the page

  EXPECT_NE(serve::http_response("GET /elsewhere HTTP/1.0\r\n\r\n", render)
                .find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(serve::http_response("POST /metrics HTTP/1.0\r\n\r\n", render)
                .find("405 Method Not Allowed"),
            std::string::npos);
  const std::string bad = serve::http_response("garbage\r\n\r\n", render);
  EXPECT_NE(bad.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(bad.find("bad HTTP request line"), std::string::npos) << bad;
  EXPECT_EQ(renders, 2);  // none of the failures rendered the page
}

}  // namespace
}  // namespace ambit
