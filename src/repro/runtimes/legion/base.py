"""What the two Legion strategies share: region staging.

Every task pays a per-region-requirement constant for each input and
output plus its input bytes over ``legion_staging_bandwidth``, and an
edge between procs copies its region at that bandwidth; both are charged
under ``"staging"``.  The index-launch strategy's edges cost the copy
alone; SPMD adds its phase barriers in its own :meth:`_wire`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.task import Task
from repro.runtimes.simbase import SimController


class LegionController(SimController):
    """Base of the Legion controllers (not a backend by itself)."""

    pre_category = comm_category = "staging"

    def _pre_compute_overhead(
        self, proc: int, task: Task, sizes: Sequence[int]
    ) -> float:
        regions = len(sizes) + len(task.outgoing)
        in_bytes = sum(sizes)
        return (
            regions * self.costs.legion_staging_per_region
            + in_bytes / self.costs.legion_staging_bandwidth
        )

    def _wire(self) -> tuple[bool, float, float, float, float]:
        return True, 0.0, 0.0, 0.0, self.costs.legion_staging_bandwidth
