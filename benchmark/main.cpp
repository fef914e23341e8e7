// jigsaw_benchmark: runs one benchmark workload and prints its result as
// one JSON object on stdout (see run.py, which builds and drives it).
//
//   jigsaw_benchmark --workload sim-k48 --seed 0 --seconds 10 --trace 0
//                    --tables build-benchmark/shape_tables
//                    --run-dir build-benchmark/run/1234

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "util/simd.hpp"

int main(int argc, char** argv) {
  using namespace jigsaw::benchmark;
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + flag);
      }
      const std::string value = argv[++i];
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value != "0";
      } else if (flag == "--tables") {
        o.tables_dir = value;
      } else if (flag == "--run-dir") {
        o.run_dir = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (o.workload.empty() || o.tables_dir.empty() || o.run_dir.empty()) {
      throw std::invalid_argument(
          "usage: jigsaw_benchmark --workload W --seed N --seconds S "
          "--trace 0|1 --tables DIR --run-dir DIR");
    }
    Result r = o.workload.rfind("sim-", 0) == 0 ? run_sim(o) : run_svc(o);
    r.note("simd", jigsaw::simd::level_name(jigsaw::simd::active_level()));
    std::cout << r.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "jigsaw_benchmark: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
