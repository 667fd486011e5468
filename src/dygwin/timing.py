"""Per-epoch wall-clock accounting for the training loops."""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from pathlib import Path

PHASES = ("sample", "encode", "decode", "step", "validate")


class PhaseTimer:
    """Accumulates milliseconds per phase, flushed once per epoch."""

    def __init__(self):
        self.rows: list[tuple[int, str, float]] = []
        self._accum: dict[str, float] = {phase: 0.0 for phase in PHASES}

    @contextmanager
    def phase(self, name: str):
        """Span: the time spent inside the ``with`` block counts toward ``name``."""
        started = time.perf_counter()
        yield
        self._accum[name] += (time.perf_counter() - started) * 1000.0

    def end_epoch(self, epoch: int) -> None:
        for phase in PHASES:
            self.rows.append((epoch, phase, self._accum[phase]))
            self._accum[phase] = 0.0

    def write(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "phase", "milliseconds"])
            for epoch, phase, ms in self.rows:
                writer.writerow([epoch, phase, f"{ms:.3f}"])
