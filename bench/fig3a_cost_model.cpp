/// Reproduces Fig. 3(a): manufacturing cost of 2.5D systems vs interposer
/// size, normalized to the 18mm x 18mm single chip, for defect densities
/// 0.20 / 0.25 / 0.30 per cm^2 and 4 / 16 chiplets (E1 in DESIGN.md).
#include "bench_main.hpp"

int main(int argc, char** argv) {
  tacos::benchmain::Harness harness(argc, argv, tacos::entry::kObsFlags);
  return tacos::benchmain::run("Fig. 3(a): 2.5D cost vs interposer size",
                               [] { return tacos::fig3a_cost_table(1.0); });
}
