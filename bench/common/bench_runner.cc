#include "bench/common/bench_runner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace mrm {
namespace bench {
namespace {

// %.17g round-trips IEEE doubles exactly, so two runs that computed the same
// value print the same bytes — the property the single- vs multi-threaded
// bit-identity check relies on.
void PrintDouble(std::FILE* f, double value) { std::fprintf(f, "%.17g", value); }

void PrintJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    switch (c) {
      case '"':
        std::fputs("\\\"", f);
        break;
      case '\\':
        std::fputs("\\\\", f);
        break;
      case '\n':
        std::fputs("\\n", f);
        break;
      case '\t':
        std::fputs("\\t", f);
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::fprintf(f, "\\u%04x", c);
        } else {
          std::fputc(c, f);
        }
    }
  }
  std::fputc('"', f);
}

}  // namespace

int ParseSimThreads(int argc, char** argv, int fallback) {
  int threads = fallback;
  if (const char* env = std::getenv("MRMSIM_SIM_THREADS")) {
    threads = static_cast<int>(std::strtol(env, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--sim-threads=";
    if (arg.rfind(prefix, 0) == 0) {
      threads = static_cast<int>(std::strtol(arg.c_str() + prefix.size(), nullptr, 10));
    }
  }
  return threads < 1 ? 1 : threads;
}

int ParseEpochBatch(int argc, char** argv, int fallback) {
  int batch = fallback;
  if (const char* env = std::getenv("MRMSIM_EPOCH_BATCH")) {
    batch = static_cast<int>(std::strtol(env, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--sim-epoch-batch=";
    if (arg.rfind(prefix, 0) == 0) {
      batch = static_cast<int>(std::strtol(arg.c_str() + prefix.size(), nullptr, 10));
    }
  }
  return batch < 0 ? 0 : batch;
}

namespace {

// Strictly-parsed integer knob: on a malformed or out-of-range value the
// current setting is kept and one diagnostic line names the offender, so a
// typo in an env var degrades loudly instead of silently running the wrong
// configuration.
long long ResolveKnob(const char* text, const char* source, long long min_valid,
                      long long current, const char* what) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < min_valid) {
    std::fprintf(stderr, "bench_runner: ignoring invalid %s '%s' from %s (integer >= %lld)\n",
                 what, text, source, min_valid);
    return current;
  }
  return value;
}

long long ParseKnob(int argc, char** argv, const char* arg_prefix, const char* env_name,
                    long long min_valid, long long fallback, const char* what) {
  long long value = fallback;
  if (const char* env = std::getenv(env_name)) {
    value = ResolveKnob(env, env_name, min_valid, value, what);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(arg_prefix, 0) == 0) {
      value = ResolveKnob(arg.c_str() + std::string(arg_prefix).size(), arg_prefix, min_valid,
                          value, what);
    }
  }
  return value;
}

}  // namespace

std::uint64_t ParseSpecHorizon(int argc, char** argv, std::uint64_t fallback) {
  return static_cast<std::uint64_t>(
      ParseKnob(argc, argv, "--sim-spec-horizon=", "MRMSIM_SPEC_HORIZON",
                /*min_valid=*/0, static_cast<long long>(fallback), "sim-spec-horizon"));
}

std::string ParsePolicyPreset(int argc, char** argv, const std::string& fallback) {
  std::string preset = fallback;
  if (const char* env = std::getenv("MRMSIM_POLICY_PRESET")) {
    preset = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--policy-preset=";
    if (arg.rfind(prefix, 0) == 0) {
      preset = arg.substr(prefix.size());
    }
  }
  if (preset.empty()) {
    std::fprintf(stderr, "bench: empty policy-preset value ignored, using \"%s\"\n",
                 fallback.c_str());
    preset = fallback;
  }
  return preset;
}

BenchRunner::BenchRunner(std::string name) : name_(std::move(name)) {}

void BenchRunner::Add(std::string label, std::function<void(PointResult&)> fn) {
  points_.push_back({std::move(label), std::move(fn)});
}

void BenchRunner::SetConfig(std::string key, std::string value) {
  config_[std::move(key)] = std::move(value);
}

unsigned BenchRunner::ResolveThreads(unsigned requested) const {
  unsigned threads = requested;
  if (threads == 0) {
    if (const char* env = std::getenv("MRMSIM_BENCH_THREADS")) {
      threads = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    }
  }
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
  }
  if (threads == 0) {
    threads = 1;
  }
  if (threads > points_.size()) {
    threads = static_cast<unsigned>(points_.size());
  }
  return threads;
}

int BenchRunner::RunAndReport(unsigned requested_threads) {
  const unsigned threads = ResolveThreads(requested_threads);

  results_.assign(points_.size(), {});
  for (std::size_t i = 0; i < points_.size(); ++i) {
    results_[i].first = points_[i].label;
  }

  // Work-stealing by atomic index: threads race for the next unstarted point,
  // but each point's result lands in its registration slot, so the report is
  // deterministic in order and (per the contract) in content.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points_.size()) {
        return;
      }
      points_[i].fn(results_[i].second);
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  std::printf("\n%-34s %14s\n", "point", "events");
  for (const auto& [label, result] : results_) {
    std::printf("%-34s %14llu\n", label.c_str(), static_cast<unsigned long long>(result.events));
  }

  return WriteJson() ? 0 : 1;
}

bool BenchRunner::WriteJson() const {
  std::string path = "BENCH_" + name_ + ".json";
  if (const char* dir = std::getenv("MRMSIM_BENCH_OUT")) {
    path = std::string(dir) + "/" + path;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_runner: cannot write %s\n", path.c_str());
    return false;
  }

  std::fprintf(f, "{\n  \"bench\": ");
  PrintJsonString(f, name_);
  std::fputs(",\n  \"config\": {", f);
  bool first = true;
  for (const auto& [key, value] : config_) {
    std::fprintf(f, "%s\n    ", first ? "" : ",");
    PrintJsonString(f, key);
    std::fputs(": ", f);
    PrintJsonString(f, value);
    first = false;
  }
  std::fprintf(f, "%s},\n  \"points\": [", config_.empty() ? "" : "\n  ");

  for (std::size_t i = 0; i < results_.size(); ++i) {
    const PointResult& r = results_[i].second;
    std::fprintf(f, "%s\n    {\n      \"label\": ", i == 0 ? "" : ",");
    PrintJsonString(f, results_[i].first);
    std::fprintf(f, ",\n      \"events\": %llu,\n      \"metrics\": {",
                 static_cast<unsigned long long>(r.events));
    bool first_metric = true;
    for (const auto& [key, value] : r.metrics) {
      std::fprintf(f, "%s\n        ", first_metric ? "" : ",");
      PrintJsonString(f, key);
      std::fputs(": ", f);
      PrintDouble(f, value);
      first_metric = false;
    }
    std::fprintf(f, "%s}\n    }", r.metrics.empty() ? "" : "\n      ");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace bench
}  // namespace mrm
