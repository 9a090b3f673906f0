"""Show the cutting-plane iteration on two cases.

The alternation case is built so the thermal budget and the much
tighter sync budget take turns producing the worst violated conic
constraint; the log prints that back-and-forth directly. The 9-bus
case then shows a realistic run ending in binding thermal rows.
"""
from syncopf import parse_case, solve_cc_opf


def show(case_path):
    net, chance = parse_case(case_path)
    sol = solve_cc_opf(net, chance)
    print(f"\n{case_path}: optimum {sol.objective:.4f} "
          f"after {sol.iterations} QP solves, {len(sol.cuts)} cuts")
    print("  iter  line  kind     violation")
    for rec in sol.iteration_log:
        print(f"  {rec['iteration']:4d}  {rec['line']:4d}  {rec['kind']:7s}  {rec['violation']:.3e}")
    binding = [
        (k, "thermal") for k, b in enumerate(sol.binding_thermal) if b
    ] + [(k, "sync") for k, b in enumerate(sol.binding_sync) if b]
    print(f"  binding at optimum: {binding if binding else 'none'}")


def main():
    show("cases/alternation.json")
    show("cases/case9_wind.json")


if __name__ == "__main__":
    main()
