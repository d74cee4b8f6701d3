"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...)`` returning structured rows and ``main()``
printing the same table/series the paper reports, side by side with the
paper's published numbers. ``san-map experiment <name>`` (or ``all``) runs
them; ``tests/experiments/`` asserts the paper-shape claims on the rows.

| module               | paper artifact                                     |
|----------------------|----------------------------------------------------|
| ``fig3_components``   | Figure 3 — subcluster component counts             |
| ``fig4_subcluster_map`` | Figure 4 — automatically generated map of C      |
| ``fig5_full_map``     | Figure 5 — the 100-node NOW map                    |
| ``fig6_probe_counts`` | Figure 6 — probe counts and hit ratios             |
| ``fig7_mapping_times``| Figure 7 — mapping times, master vs election       |
| ``fig8_model_growth`` | Figure 8 — model graph growth over explorations    |
| ``fig9_responders``   | Figure 9 — map time vs number of mapper daemons    |
| ``fig10_myricom``     | Figure 10 — Myricom Algorithm probe/time comparison|
| ``routing_study``     | Section 5.5 — UP*/DOWN* routes: count, deadlock    |
| ``ablations``         | planner / collision-model / coupon ablations       |
| ``crosstraffic_ext``  | Section 6 extension — mapping under cross-traffic  |
| ``parallel_ext``      | Section 6 extension — parallel partial-map merging |
"""

__all__ = [
    "common",
    "tables",
    "fig3_components",
    "fig4_subcluster_map",
    "fig5_full_map",
    "fig6_probe_counts",
    "fig7_mapping_times",
    "fig8_model_growth",
    "fig9_responders",
    "fig10_myricom",
    "routing_study",
    "routing_quality",
    "ablations",
    "crosstraffic_ext",
    "parallel_ext",
]
