"""Section 6 future-work directions, implemented.

- :mod:`~repro.extensions.crosstraffic` — mapping in the presence of
  application cross-traffic (the paper's first open problem; Section 7
  reports anecdotal success, this module quantifies it on the simulator);
- :mod:`~repro.extensions.randomized` — the randomized / coupon-collecting
  mapping phase (Vazirani's suggestion) with the firmware change the paper
  stipulates (hosts answer probes that hit them mid-string);
- :mod:`~repro.extensions.parallel_maps` — parallel local mapping with
  partial-map exchange and conflict-checked merging into a globally
  consistent view.
"""

from repro.extensions.crosstraffic import (
    build_crosstraffic_service,
    crosstraffic_study,
)
from repro.extensions.parallel_maps import (
    MergeConflict,
    PartialMap,
    map_local_region,
    merge_partial_maps,
    parallel_mapping_study,
)
from repro.extensions.randomized import CouponMapper

__all__ = [
    "CouponMapper",
    "MergeConflict",
    "PartialMap",
    "build_crosstraffic_service",
    "crosstraffic_study",
    "map_local_region",
    "merge_partial_maps",
    "parallel_mapping_study",
]
