"""The benchmark's workloads: synthetic user profiles for `tripkin synth`.

Profiles are fixed per workload. The run seed is handed to `tripkin synth
--seed` and to the experiment commands, so one seed gives one corpus and
one set of reports. Per-user knobs are spread with fractional parts of
multiples of irrational constants, so users overlap instead of forming
separable clusters, and no user sits at the edge of the pooled IQR fences.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _frac(i: int, c: float) -> float:
    return (i * c) % 1.0


def _paper_shape() -> list[dict]:
    # 26 users with Zipf-skewed trip counts (220 down to 43), three trip
    # lengths and three sampling periods shared across users, and GPS noise
    # scaled with the square of the period so that acceleration noise
    # (noise / dt^2) is alike for every user.
    profiles = []
    for i in range(26):
        period = 3 + (i * 7) % 3
        profiles.append(
            dict(
                user_id=f"{i:03d}",
                mean_cruise_speed=4.0 + 4.0 * _frac(i, 0.618034),
                speed_jitter=1.6,
                accel_scale=0.06 + 0.08 * _frac(i, 0.414214),
                trips=round(220 / (i + 1) ** 0.5),
                points_per_trip=12 + (i % 3) * 3,
                sampling_period=float(period),
                gps_noise_std=(0.12 + 0.06 * _frac(i, 0.732051)) * period**2,
            )
        )
    return profiles


def _long_trips() -> list[dict]:
    # All users share trip length and period: duration is then one value,
    # its IQR is zero, and the closed fences keep every trip.
    return [
        dict(
            user_id=f"{i:03d}",
            mean_cruise_speed=3.0 + 2.0 * i,
            speed_jitter=1.0,
            accel_scale=0.05 + 0.02 * i,
            trips=48,
            points_per_trip=600,
            sampling_period=1.0,
            gps_noise_std=2.0 + i,
        )
        for i in range(4)
    ]


def drop_every_fourth_label(root: Path) -> None:
    """Delete label rows 4, 8, 12, ... of every user.

    Their point streams stay on disk, so part of each user's travel lies
    outside every label interval, as for Geolife users who also log
    unlabelled trips.
    """
    for labels in sorted((root / "Data").glob("*/labels.txt")):
        header, *rows = labels.read_text().splitlines(keepends=True)
        labels.write_text(header + "".join(r for i, r in enumerate(rows) if i % 4 != 3))


@dataclass(frozen=True)
class Workload:
    name: str
    profiles: Callable[[], list[dict]]
    prepare: Callable[[Path], None] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-shape", _paper_shape),
        Workload("long-trips", _long_trips, drop_every_fourth_label),
    )
}
