/// Reproduces the in-text cost-model claims of §III-B/C (E3 in DESIGN.md):
/// the 27x single-chip cost blow-up, the 27%-cheaper 4-chiplet system, the
/// 30% interposer share, and the 30-42% / 36% minimal-interposer savings.
#include "bench_main.hpp"

int main(int argc, char** argv) {
  tacos::benchmain::Harness harness(argc, argv, tacos::entry::kObsFlags);
  return tacos::benchmain::run("In-text cost claims (paper vs model)",
                               [] { return tacos::cost_claims_table(); });
}
