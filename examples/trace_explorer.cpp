// trace_explorer: capture a real parallel qsort run with cilk::trace, show
// where the time went, emit a Chrome/Perfetto trace, and replay the
// captured dag into the simulator to ask "what if I had 1/2/4/8 workers?"
// — the cilkview methodology (paper Fig. 3) driven by measured strand
// weights instead of modeled instruction counts.
//
// Usage: trace_explorer [workers] [elements] [trace.json]
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "runtime/scheduler.hpp"
#include "support/timing.hpp"
#include "trace/chrome.hpp"
#include "trace/replay.hpp"
#include "trace/session.hpp"
#include "trace/timeline.hpp"
#include "workloads/qsort.hpp"

int main(int argc, char** argv) {
  using namespace cilkpp;
  const unsigned workers = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  const std::size_t n =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : std::size_t{1} << 20;
  const char* json_path = argc > 3 ? argv[3] : "trace.json";

  rt::scheduler sched(workers);
  auto data = workloads::random_doubles(n, 42);

  trace::session cap(sched, trace::session_options{std::size_t{1} << 18});
  stopwatch sw;
  sched.run([&](rt::context& ctx) {
    workloads::qsort(ctx, data.data(), data.data() + n, 2048);
  });
  const double wall_ms = sw.elapsed_ms();
  trace::timeline t = cap.assemble();

  std::cout << "qsort of " << n << " doubles on " << workers << " workers: "
            << wall_ms << " ms wall, " << t.frames.size() << " frames, "
            << t.recorded << " events recorded";
  if (t.dropped != 0) std::cout << " (" << t.dropped << " dropped)";
  std::cout << "\n\n";

  trace::utilization_table(t).print(std::cout);
  std::cout << '\n';
  trace::steal_matrix_table(t).print(std::cout);
  std::cout << '\n';
  trace::steal_interval_table(t).print(std::cout);
  std::cout << '\n';

  {
    std::ofstream os(json_path);
    trace::write_chrome_trace(os, t);
  }
  std::cout << "wrote " << json_path
            << " — open it at ui.perfetto.dev or chrome://tracing\n\n";

  trace::what_if_report report = trace::what_if(t, {1, 2, 4, 8});
  trace::what_if_table(report).print(std::cout);
  std::cout << "\nmeasured run: " << table::format_cell(ns_to_ms(t.span_ns()))
            << " ms across " << workers << " workers (utilization "
            << table::format_cell(100.0 * t.utilization()) << "%); "
            << (report.within_bounds
                    ? "all predictions respect the Work/Span-Law bounds"
                    : "WARNING: a prediction exceeds the Work/Span-Law bound")
            << '\n';
  return 0;
}
