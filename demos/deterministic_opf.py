"""Walk the three deterministic solvers over the bundled 9-bus case.

Solves the linear DC-OPF, the sync-constrained SCOPF, and the barrier
reformulation, then recovers sine-consistent angles and prints the
certificates that tie the three together.
"""
import numpy as np

from syncopf import injection_vector, parse_case, solve_pf
from syncopf.det_opf import barrier_config_from_dc, solve_barrier_opf, solve_dc_opf, solve_scopf


def main():
    net, _ = parse_case("cases/case9_wind.json")
    print(f"case9: {net.n_bus} buses, {net.n_line} lines, {net.n_gen} generators")

    dc = solve_dc_opf(net)
    print(f"\ndc-opf      objective {dc.objective:12.4f}")

    sc = solve_scopf(net)
    print(f"scopf       objective {sc.objective:12.4f}  sync recovered: {sc.sync_recovered}")
    worst = np.max(np.abs(sc.flows / net.beta))
    print(f"            worst linear angle surrogate |flow/beta| = {worst:.4f}")

    state = solve_pf(net, injection_vector(net, sc.dispatch))
    print(f"            sine recovery feasible: {state.feasible}, "
          f"max |rho| = {np.max(np.abs(state.rho)):.4f}")

    cfg = barrier_config_from_dc(net, epsilon=0.01)
    res = solve_barrier_opf(net, cfg)
    print(f"\nbarrier     cost      {res.cost:12.4f}  ({res.iterations} Newton steps)")
    print(f"            slacksine certificate: {res.slacksine_ok}")
    print(f"            separation eps~ = {res.eps_separation:.4f}")
    print(f"            cost within allowance of barrier objective: "
          f"{res.recovery_cost_bound_ok(net)}")
    print(f"            dual residual bound holds: {res.lemma_c_ok} "
          f"(max eta / bound = {np.max(res.eta / res.eta_bound):.4f})")


if __name__ == "__main__":
    main()
