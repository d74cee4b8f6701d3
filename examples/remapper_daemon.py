#!/usr/bin/env python3
"""A day in the life of the remapping daemon.

The abstract: "the system periodically discovers the network topology and
uses it to compute and to distribute a set of mutually deadlock-free routes
to all network interfaces." This example drives that loop over an
operations timeline on subcluster C and shows what each cycle costs:

- steady-state cycles detect "no change" and ship zero route bytes;
- a change triggers recompute + *incremental* distribution (only per-host
  deltas travel, not full tables);
- the recompute is patched from the last generation when the new map
  keeps its state numbering: each routed cycle says how many chains were
  compiled again, or why the route memo compiled every chain. The memo is
  read through ``daemon.state``, the work the daemon carries from one
  cycle to the next.

Run:  python examples/remapper_daemon.py
"""

from repro import RemapperDaemon, build_subcluster


def show(cycle, label: str, memo) -> None:
    dist = cycle.distribution
    compiled = (
        f"patched, {memo.cells_run} chains compiled again"
        if memo.fallback is None
        else f"all {memo.cells_run} chains compiled ({memo.fallback})"
    )
    print(
        f"cycle {cycle.index} [{label}]\n"
        f"  change: {cycle.diff.summary()}\n"
        f"  routes recomputed: {cycle.routes_recomputed}"
        + (f" ({cycle.n_routes} routes, deadlock-free={cycle.deadlock_free})"
           f"\n  route compile: {compiled}"
           if cycle.routes_recomputed else "")
        + (
            f"\n  distribution: {dist.bytes_sent} bytes to "
            f"{len(dist.delivered)} interfaces"
            if dist is not None
            else "\n  distribution: skipped (nothing changed)"
        )
        + f"\n  cycle cost: {cycle.elapsed_ms:.0f} ms simulated\n"
    )


def main() -> None:
    net = build_subcluster("C")
    daemon = RemapperDaemon(net, "C-svc")
    memo = daemon.state.route_memo

    show(daemon.run_cycle(), "boot: first full map", memo)
    show(daemon.run_cycle(), "steady state", memo)

    # 09:30 — a new workstation is racked.
    net.add_host("C-n35")
    net.connect("C-n35", 0, "C-leaf-3", net.free_ports("C-leaf-3")[0])
    show(daemon.run_cycle(), "host C-n35 added", memo)

    # 11:00 — nothing happened.
    show(daemon.run_cycle(), "steady state", memo)

    # 14:45 — a cable is pulled for maintenance (redundant path exists).
    victim = next(
        w
        for w in net.wires_of("C-l2-2")
        if net.is_switch(w.other_end(w.a if w.a.node == "C-l2-2" else w.b).node)
    )
    net.disconnect(victim)
    show(daemon.run_cycle(), "cable pulled", memo)

    # 16:20 — the cable comes back.
    net.connect(victim.a.node, victim.a.port, victim.b.node, victim.b.port)
    show(daemon.run_cycle(), "cable restored", memo)

    total = sum(c.elapsed_ms for c in daemon.history)
    pushed = sum(
        c.distribution.bytes_sent
        for c in daemon.history
        if c.distribution is not None
    )
    print(
        f"day total: {len(daemon.history)} cycles, {total:.0f} ms simulated, "
        f"{pushed} route bytes pushed (incremental distribution)"
    )


if __name__ == "__main__":
    main()
