/// Reproduces the §III-A network-power statements (E11): the electrical
/// mesh consumes ~3.9 W in the single-chip system and up to ~8.4 W in the
/// 2.5D system, with interposer-link drivers sized for single-cycle
/// propagation (Fig. 2 model).
#include "bench_main.hpp"

int main(int argc, char** argv) {
  tacos::benchmain::Harness harness(argc, argv, tacos::entry::kObsFlags);
  return tacos::benchmain::run("Electrical mesh network power",
                               [] { return tacos::network_power_table(); });
}
