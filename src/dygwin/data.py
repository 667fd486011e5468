"""Loading, validation, slicing, and splitting of continuous-time dynamic graphs.

A graph is an immutable, time-ordered interaction log. Node ids are
compacted to ``0..N-1`` at load time; the log keeps each compact id's
original id, and loading writes no file. Parallel edges and self-loops are
legal.
"""

from __future__ import annotations

import csv
import math
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError


class EdgeArray:
    """Columnar slice of interactions, the working unit for windows and views.

    ``enc_masked`` marks edges whose temporal-encoding inputs (degree and
    common-neighbor counts, raw features) must read as zero; the SSL
    distortion pipeline sets it.
    """

    __slots__ = ("u", "v", "t", "feats", "idx", "labels", "label_present", "enc_masked")

    def __init__(self, u, v, t, feats, idx, labels, label_present, enc_masked=None):
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.t = np.asarray(t, dtype=np.float64)
        self.feats = np.asarray(feats, dtype=np.float32)
        self.idx = np.asarray(idx, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.float64)
        self.label_present = np.asarray(label_present, dtype=bool)
        if enc_masked is None:
            enc_masked = np.zeros(len(self.u), dtype=bool)
        self.enc_masked = np.asarray(enc_masked, dtype=bool)

    def __len__(self) -> int:
        return len(self.u)

    @property
    def edge_dim(self) -> int:
        return self.feats.shape[1]

    def endpoints(self) -> np.ndarray:
        """Sorted unique node ids touched by this slice."""
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([self.u, self.v]))

    def take(self, selector) -> "EdgeArray":
        return EdgeArray(self.u[selector], self.v[selector], self.t[selector],
                         self.feats[selector], self.idx[selector], self.labels[selector],
                         self.label_present[selector], self.enc_masked[selector])

    def with_enc_mask(self, mask: np.ndarray) -> "EdgeArray":
        return EdgeArray(self.u, self.v, self.t, self.feats, self.idx,
                         self.labels, self.label_present, mask)


class CTDG(EdgeArray):
    """Immutable time-ordered interaction log: every edge, with ``idx`` 0..E-1,
    plus the node count, each compact id's original id and optional node features."""

    __slots__ = ("num_nodes", "original_ids", "node_features")

    def __init__(self, u, v, t, feats, labels, label_present,
                 num_nodes: int, original_ids: np.ndarray | None = None,
                 node_features: np.ndarray | None = None):
        super().__init__(u, v, t, feats, np.arange(len(u)), labels, label_present)
        self.num_nodes = int(num_nodes)
        self.original_ids = (np.arange(num_nodes, dtype=np.int64)
                             if original_ids is None else np.asarray(original_ids, dtype=np.int64))
        self.node_features = None if node_features is None else np.asarray(node_features, dtype=np.float32)
        self._validate()

    def _validate(self) -> None:
        E = len(self.u)
        if any(len(column) != E for column in (self.v, self.t, self.feats, self.labels,
                                                self.label_present)):
            raise DataError("column lengths disagree")
        if len(self.original_ids) != self.num_nodes:
            raise DataError(f"{len(self.original_ids)} original ids for {self.num_nodes} nodes")
        if self.node_features is not None and len(self.node_features) != self.num_nodes:
            raise DataError(f"{len(self.node_features)} node feature rows for "
                            f"{self.num_nodes} nodes")
        if E and np.any(np.diff(self.t) < 0):
            raise DataError("edges are not sorted by timestamp")
        if E and not np.all(np.isfinite(self.t)):
            raise DataError("non-finite timestamp")
        if E and (self.u.min() < 0 or self.v.min() < 0
                  or max(self.u.max(), self.v.max()) >= self.num_nodes):
            raise DataError("node id outside [0, num_nodes)")

    @property
    def node_dim(self) -> int:
        return 0 if self.node_features is None else self.node_features.shape[1]

    def window(self, start: int, end: int) -> EdgeArray:
        """Edges with index in [start, end)."""
        if not (0 <= start <= end <= len(self)):
            raise ContractError(f"window [{start}, {end}) outside [0, {len(self)}]")
        return self.take(slice(start, end))

    def subset(self, indices: np.ndarray) -> "CTDG":
        """Re-indexed log keeping only ``indices`` (ascending); node ids unchanged."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and np.any(np.diff(indices) < 0):
            raise ContractError("subset indices must be ascending")
        return CTDG(self.u[indices], self.v[indices], self.t[indices],
                    self.feats[indices], self.labels[indices], self.label_present[indices],
                    num_nodes=self.num_nodes, original_ids=self.original_ids,
                    node_features=self.node_features)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split boundaries plus the inductive node mask."""

    mode: str  # "transductive" | "inductive"
    boundaries: tuple[int, int]  # (train_end, val_end) edge indices
    masked_nodes: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("transductive", "inductive"):
            raise DataError(f"unknown split mode {self.mode!r}")
        if self.mode == "transductive" and self.masked_nodes:
            raise DataError("masked_nodes must be empty in transductive mode")

    def masked_filter(self, ctdg: CTDG):
        """Selector of the edges (of a slice or of ``ctdg``) touching a masked
        node; ``None`` when transductive, where every edge is kept. Raises
        ``DataError`` when the split does not fit ``ctdg``."""
        if not 0 <= self.boundaries[0] <= self.boundaries[1] <= len(ctdg):
            raise DataError(f"split boundaries {self.boundaries} do not fit {len(ctdg)} edges")
        outside = [n for n in self.masked_nodes if not 0 <= n < ctdg.num_nodes]
        if outside:
            raise DataError(f"split masks ids {outside} outside {ctdg.num_nodes} nodes")
        if self.mode != "inductive":
            return None
        masked = np.zeros(ctdg.num_nodes, dtype=bool)
        masked[list(self.masked_nodes)] = True
        return lambda edges: masked[edges.u] | masked[edges.v]


def _parse_number(text: str, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {line_no}: non-numeric value {text!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: non-finite value {text!r} in column {column!r}")
    return value


def _parse_node_id(text: str, line_no: int, column: str) -> int:
    try:
        value = int(text)  # exact at any size, where a float keeps 53 bits
    except ValueError:
        number = _parse_number(text, line_no, column)  # forms like 3.0 or 1e3
        if not number.is_integer():
            raise DataError(f"line {line_no}: node id {text!r} in column {column!r} "
                            "is not an integer") from None
        value = int(number)
    if abs(value) >= 2**63:
        raise DataError(f"line {line_no}: node id {text!r} in column {column!r} is outside int64")
    return value


def load_csv(path) -> CTDG:
    """Read a ``u,v,t[,label][,f0..fk]`` CSV into a CTDG.

    Rows out of time order are stably sorted. Node ids are compacted to a
    dense range in ascending order; ``original_ids`` maps them back.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header[:3] != ["u", "v", "t"]:
            raise DataError(f"{path}: header must start with u,v,t (got {header[:3]})")
        rest = header[3:]
        labeled = bool(rest) and rest[0] == "label"
        feat_cols = rest[1:] if labeled else rest

        us, vs, ts, labels, present = [], [], [], [], []
        feats = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            expected = 3 + (1 if labeled else 0) + len(feat_cols)
            if len(row) != expected:
                raise DataError(f"line {line_no}: expected {expected} fields, got {len(row)}")
            us.append(_parse_node_id(row[0], line_no, "u"))
            vs.append(_parse_node_id(row[1], line_no, "v"))
            t = _parse_number(row[2], line_no, "t")
            if t < 0:
                raise DataError(f"line {line_no}: negative timestamp {t}")
            ts.append(t)
            offset = 3
            if labeled:
                cell = row[3].strip()
                if cell == "":
                    labels.append(np.nan)
                    present.append(False)
                else:
                    labels.append(_parse_number(cell, line_no, "label"))
                    present.append(True)
                offset = 4
            else:
                labels.append(np.nan)
                present.append(False)
            feats.append([_parse_number(row[offset + k], line_no, feat_cols[k])
                          for k in range(len(feat_cols))])

    E = len(us)
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    t = np.asarray(ts, dtype=np.float64)
    m = np.asarray(feats, dtype=np.float32).reshape(E, len(feat_cols))
    lab = np.asarray(labels, dtype=np.float64)
    lab_present = np.asarray(present, dtype=bool)

    order = np.argsort(t, kind="stable")
    if E and np.any(order != np.arange(E)):
        u, v, t, m, lab, lab_present = (u[order], v[order], t[order],
                                        m[order], lab[order], lab_present[order])

    original, compact = np.unique(np.concatenate([u, v]), return_inverse=True)
    return CTDG(compact[:E], compact[E:], t, m, lab, lab_present, num_nodes=len(original),
                original_ids=original)


def save_cache(ctdg: CTDG, path) -> None:
    payload = {
        "u": ctdg.u, "v": ctdg.v, "t": ctdg.t, "feats": ctdg.feats,
        "labels": ctdg.labels, "label_present": ctdg.label_present,
        "num_nodes": np.asarray(ctdg.num_nodes), "original_ids": ctdg.original_ids,
    }
    if ctdg.node_features is not None:
        payload["node_features"] = ctdg.node_features
    np.savez(path, **payload)


def load_cache(path) -> CTDG:
    """Read a ``save_cache`` file; one that is not a zip archive, lacks a
    column or holds a non-scalar ``num_nodes`` is a ``DataError``."""
    try:
        with np.load(path) as data:
            columns = [data[name] for name in ("u", "v", "t", "feats", "labels",
                                               "label_present")]
            num_nodes, original_ids = int(data["num_nodes"]), data["original_ids"]
            node_features = data["node_features"] if "node_features" in data.files else None
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: malformed cache: {exc}") from None
    return CTDG(*columns, num_nodes, original_ids=original_ids, node_features=node_features)


def chronological_split(ctdg: CTDG, fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)) -> SplitSpec:
    """Index-based chronological split; valid because edges are time-sorted."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError(f"split fractions must sum to 1, got {fractions}")
    E = len(ctdg)
    if E < 3:
        raise DataError(f"dataset too small to split: {E} edges")
    train_end = int(math.floor(fractions[0] * E))
    val_end = int(math.floor((fractions[0] + fractions[1]) * E))
    if train_end == val_end:
        warnings.warn("chronological split produced an empty validation set")
    return SplitSpec(mode="transductive", boundaries=(train_end, val_end))


def inductive_split(ctdg: CTDG, node_fraction: float = 0.1, seed: int = 0,
                    fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)) -> SplitSpec:
    """Mask a random node subset out of training; evaluate only on their edges."""
    if not 0.0 < node_fraction < 1.0:
        raise ContractError(f"node_fraction must be in (0, 1), got {node_fraction}")
    base = chronological_split(ctdg, fractions)
    count = int(math.ceil(node_fraction * ctdg.num_nodes))
    rng = np.random.default_rng(seed)
    masked = np.sort(rng.choice(ctdg.num_nodes, size=count, replace=False))
    spec = SplitSpec(mode="inductive", boundaries=base.boundaries,
                     masked_nodes=tuple(int(n) for n in masked), seed=seed)
    train_idx, _, _ = split_edge_indices(ctdg, spec)
    if len(train_idx) == 0:
        raise DataError("inductive mask removes every training edge")
    return spec


def split_edge_indices(ctdg: CTDG, split: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge indices of the train / val / test portions under a split."""
    train_end, val_end = split.boundaries
    E = len(ctdg)
    train = np.arange(0, train_end, dtype=np.int64)
    val = np.arange(train_end, val_end, dtype=np.int64)
    test = np.arange(val_end, E, dtype=np.int64)
    touches_masked = split.masked_filter(ctdg)
    if touches_masked is not None:
        touches = touches_masked(ctdg)
        train = train[~touches[train]]
        val = val[touches[val]]
        test = test[touches[test]]
    return train, val, test


def save_split_manifest(path, split: SplitSpec) -> None:
    lines = [
        f"mode = {split.mode}",
        f"train_end = {split.boundaries[0]}",
        f"val_end = {split.boundaries[1]}",
        f"seed = {split.seed}",
        "masked_nodes = " + ",".join(str(n) for n in split.masked_nodes),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_split_manifest(path) -> SplitSpec:
    fields: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        masked = tuple(int(x) for x in fields["masked_nodes"].split(",") if x != "")
        return SplitSpec(mode=fields["mode"],
                         boundaries=(int(fields["train_end"]), int(fields["val_end"])),
                         masked_nodes=masked, seed=int(fields["seed"]))
    except (KeyError, ValueError) as exc:  # ValueError: a non-integer field
        raise DataError(f"{path}: missing or malformed manifest field: {exc}") from None
