"""Times one set-up in this fresh interpreter: import of ocsim (and of the
benchmark's own small workload module), scenario generation and
`Simulation.__init__` for one workload input. Prints seconds.

    python3 -m perfbench.probe_setup '<workload json>' <seed> <input index>
"""
import sys
from time import perf_counter


def main(argv):
    spec, seed, index = argv[1], int(argv[2]), int(argv[3])
    t0 = perf_counter()
    from perfbench import workloads
    w = workloads.Workload.from_json(spec)
    workloads.ocsim.Simulation(workloads.make_config(w, seed, index))
    print(perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv)
