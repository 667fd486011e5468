"""Per-epoch wall-clock accounting for the training loops."""

from __future__ import annotations

import csv
import time
from pathlib import Path

PHASES = ("sample", "encode", "decode", "step", "validate")


class PhaseTimer:
    """Accumulates milliseconds per phase, flushed once per epoch."""

    def __init__(self):
        self.rows: list[tuple[int, str, float]] = []
        self._running: dict[str, float] = {}
        self._accum: dict[str, float] = {phase: 0.0 for phase in PHASES}

    def start(self, phase: str) -> None:
        self._running[phase] = time.perf_counter()

    def stop(self, phase: str) -> None:
        started = self._running.pop(phase, None)
        if started is not None:
            self._accum[phase] += (time.perf_counter() - started) * 1000.0

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
