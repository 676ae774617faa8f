#include "serve_leg.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <future>
#include <optional>
#include <string>
#include <thread>

#include "serve/job_server.hpp"
#include "serve/runtime_set.hpp"
#include "spans.hpp"
#include "support/rng.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"
#include "workloads/sparse.hpp"
#include "workloads/spmv.hpp"

namespace perfbench {
namespace {

using namespace cilkpp;
using spans::span;

constexpr unsigned kFibLeaf = 15;       // serial fib(15) per fib job
constexpr std::size_t kSortLen = 192;   // doubles per qsort job
constexpr std::uint32_t kSpmvRows = 64; // 64 x 64, ~8 nonzeros per row
constexpr std::size_t kVariants = 16;   // distinct inputs per job kind

std::uint64_t digest(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (double x : v) h = (h ^ std::bit_cast<std::uint64_t>(x)) * 1099511628211ull;
  return h;
}

struct job_spec {
  std::uint8_t kind = 0;     ///< 0 fib, 1 qsort, 2 spmv (= tenant index)
  std::uint8_t variant = 0;  ///< which input of that kind
};

job_spec draw_job(xoshiro256& rng) {
  return job_spec{static_cast<std::uint8_t>(rng.below(3)),
                  static_cast<std::uint8_t>(rng.below(kVariants))};
}

}  // namespace

/// The seeded job inputs and their answers, computed once per run.
struct serve_inputs {
  explicit serve_inputs(std::uint64_t seed_) : seed(seed_) {
    expected[0] = workloads::fib_serial(kFibLeaf);
    for (std::size_t i = 0; i < kVariants; ++i) {
      arrays.push_back(workloads::random_doubles(kSortLen, ped::mix(seed, i)));
      std::vector<double> sorted = arrays.back();
      std::sort(sorted.begin(), sorted.end());
      expected[1 + 2 * i] = digest(sorted);
      mats.push_back(workloads::random_sparse_matrix(
          kSpmvRows, 8, ped::mix(seed, kVariants + i)));
      xs.push_back(workloads::random_doubles(kSpmvRows, ped::mix(seed, 3 * kVariants + i)));
      expected[2 + 2 * i] = digest(workloads::spmv_serial(mats.back(), xs.back()));
    }
  }

  std::uint64_t expected_of(job_spec j) const {
    return j.kind == 0 ? expected[0] : expected[j.kind + 2 * j.variant];
  }

  std::uint64_t seed;
  std::uint64_t expected[1 + 2 * kVariants] = {};
  std::vector<std::vector<double>> arrays;
  std::vector<workloads::csr> mats;
  std::vector<std::vector<double>> xs;
};

std::shared_ptr<const serve_inputs> make_serve_inputs(std::uint64_t seed) {
  return std::make_shared<const serve_inputs>(seed);
}

struct serve_world::impl {
  explicit impl(std::shared_ptr<const serve_inputs> in_) : in(std::move(in_)) {
    {
      span s(spans::name::runtime_set_ctor);
      set = std::make_unique<serve::runtime_set>(
          serve::runtime_set::partitioned(2));
    }
    // fib on runtime 0; qsort and spmv share runtime 1.
    std::vector<serve::tenant_options> tenants(3);
    const char* names[] = {"fib", "qsort", "spmv"};
    for (std::size_t t = 0; t < 3; ++t) {
      tenants[t].name = names[t];
      tenants[t].runtime = t == 0 ? 0 : 1;
      tenants[t].queue_capacity = 4096;
      tenants[t].policy = serve::admission::block;
      tenants[t].batch_max = t == 0 ? 64 : 32;
    }
    {
      span s(spans::name::job_server_ctor);
      srv = std::make_unique<serve::job_server>(*set, std::move(tenants));
    }
  }

  ~impl() {
    srv.reset();  // stops the dispatchers before their runtimes go
    set.reset();
  }

  /// Submits one job; its body stores its completion time in *done_ns.
  std::optional<std::future<std::uint64_t>> submit(job_spec j,
                                                   std::uint64_t* done_ns) {
    switch (j.kind) {
      case 0:
        return srv->try_submit(0, [done_ns](rt::context& ctx) {
          const std::uint64_t r = workloads::fib(ctx, kFibLeaf, kFibLeaf);
          *done_ns = now_ns();
          return r;
        });
      case 1:
        return srv->try_submit(
            1, [arr = &in->arrays[j.variant], done_ns](rt::context& ctx) {
              std::vector<double> v = *arr;
              workloads::qsort(ctx, v.begin(), v.end());
              const std::uint64_t r = digest(v);
              *done_ns = now_ns();
              return r;
            });
      default:
        return srv->try_submit(2, [a = &in->mats[j.variant], x = &in->xs[j.variant],
                                   done_ns](rt::context& ctx) {
          const std::uint64_t r = digest(workloads::spmv(ctx, *a, *x, 16));
          *done_ns = now_ns();
          return r;
        });
    }
  }

  /// Waits for one job and checks its answer.
  bool collect(std::future<std::uint64_t>& f, job_spec j, std::uint32_t id) {
    try {
      span s(spans::name::future_get, id);
      return f.get() == in->expected_of(j);
    } catch (...) {
      return false;
    }
  }

  std::shared_ptr<const serve_inputs> in;
  std::unique_ptr<serve::runtime_set> set;
  std::unique_ptr<serve::job_server> srv;
};

serve_world::serve_world(std::shared_ptr<const serve_inputs> in)
    : impl_(std::make_unique<impl>(std::move(in))) {}

serve_world::~serve_world() = default;

void serve_world::warm_up(verdicts& v) {
  for (std::uint8_t kind = 0; kind < 3; ++kind) {
    for (std::uint8_t i = 0; i < 64; ++i) {
      const job_spec j{kind, static_cast<std::uint8_t>(i % kVariants)};
      std::uint64_t done = 0;
      auto f = impl_->submit(j, &done);
      v.record(f && impl_->collect(*f, j, 0), "serve warm-up job");
    }
  }
  impl_->srv->drain();
}

closed_loop_result serve_world::closed_loop(double seconds, unsigned clients,
                                            verdicts& v) {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> ok(clients, 0), bad(clients, 0);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      xoshiro256 rng(ped::mix(impl_->in->seed, 0x5e12e00 + c));
      std::uint32_t id = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const job_spec j = draw_job(rng);
        std::uint64_t done = 0;
        std::optional<std::future<std::uint64_t>> f;
        {
          span s(spans::name::try_submit, id);
          f = impl_->submit(j, &done);
        }
        const bool good = f && impl_->collect(*f, j, id);
        ++(good ? ok[c] : bad[c]);
        ++id;
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  closed_loop_result out;
  // A short lead-in lets every client reach steady state before windows.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / 0.05));
  const double window_s = seconds / static_cast<double>(windows);
  std::uint64_t last = completed.load();
  std::uint64_t last_ns = now_ns();
  for (std::size_t w = 0; w < windows; ++w) {
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
    const std::uint64_t n = completed.load();
    const std::uint64_t t = now_ns();
    out.window_jobs_per_s.push_back(static_cast<double>(n - last) /
                                    ns_to_s(t - last_ns));
    last = n;
    last_ns = t;
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  impl_->srv->drain();
  for (unsigned c = 0; c < clients; ++c) {
    out.jobs += ok[c] + bad[c];
    v.add(ok[c] + bad[c], bad[c],
          "closed-loop job: wrong answer, refused or threw");
  }
  return out;
}

open_loop_result serve_world::open_loop(double seconds, double rate,
                                        verdicts& v) {
  // Seeded Poisson arrivals: exponential gaps at `rate`, fixed before the
  // leg starts so the schedule never depends on how the server keeps up.
  xoshiro256 rng(ped::mix(impl_->in->seed, 0x09e2));
  const auto n = static_cast<std::size_t>(std::max(100.0, rate * seconds));
  std::vector<std::uint64_t> due(n);
  std::vector<job_spec> jobs(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.unit()) / rate;
    due[i] = static_cast<std::uint64_t>(t * 1e9);
    jobs[i] = draw_job(rng);
  }
  std::vector<std::uint64_t> done(n, 0);
  std::vector<std::optional<std::future<std::uint64_t>>> futures(n);
  open_loop_result out;
  out.late_ms.reserve(n);
  out.admit_us.reserve(n);
  const std::uint64_t t0 = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] += t0;
    const std::uint64_t now = now_ns();
    if (now < due[i]) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due[i] - now));
    }
    const std::uint64_t submit_ns = now_ns();
    {
      span s(spans::name::try_submit, static_cast<std::uint32_t>(i));
      futures[i] = impl_->submit(jobs[i], &done[i]);
    }
    out.admit_us.push_back(ns_to_us(now_ns() - submit_ns));
    out.late_ms.push_back(ns_to_ms(submit_ns - due[i]));
  }
  out.latency_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool good =
        futures[i] &&
        impl_->collect(*futures[i], jobs[i], static_cast<std::uint32_t>(i));
    v.record(good, "open-loop job: wrong answer, refused or threw");
    if (good) out.latency_ms.push_back(ns_to_ms(done[i] - due[i]));
  }
  impl_->srv->drain();
  return out;
}

void serve_world::reset_stats() {
  impl_->srv->reset_stats();
  impl_->set->reset_stats();
}

void serve_world::report_layers(metric_sink& m) {
  latency_histogram queue, exec;
  std::uint64_t rejected = 0;
  for (std::size_t t = 0; t < impl_->srv->num_tenants(); ++t) {
    const serve::tenant_stats s = impl_->srv->tenant_snapshot(t);
    queue.merge(s.latency.queue_ns());
    exec.merge(s.latency.exec_ns());
    rejected += s.rejected;
  }
  m.set("serve.queue_ms_p50", ns_to_ms(queue.p50()), "ms");
  m.set("serve.queue_ms_p99", ns_to_ms(queue.p99()), "ms");
  m.set("serve.exec_ms_p50", ns_to_ms(exec.p50()), "ms");
  m.set("serve.exec_ms_p99", ns_to_ms(exec.p99()), "ms");
  m.set("serve.rejected", static_cast<double>(rejected), "count");
  std::uint64_t naps = 0;
  for (std::size_t i = 0; i < impl_->set->size(); ++i) {
    naps += impl_->set->instance_stats(i).backoff_naps;
  }
  m.set("runtime.backoff_naps", static_cast<double>(naps), "count");
}

void serve_world::audit(verdicts& v) {
  v.record(impl_->set->verify_isolation().isolated,
           "runtime_set::verify_isolation found cross-instance steals");
}

unsigned serve_world::affinity_applied() const {
  unsigned n = 0;
  for (std::size_t i = 0; i < impl_->set->size(); ++i) {
    n += impl_->set->at(i).affinity_applied();
  }
  return n;
}

}  // namespace perfbench
