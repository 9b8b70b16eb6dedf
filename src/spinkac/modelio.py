"""Model files: a small sectioned text format.

::

    # comment
    [model]
    n = 2

    [J]
    0.0 0.3
    0.3 0.0

    [h]            # optional, defaults to zero
    0.1 0.1

    [partition]    # 1-based site indices, one block per line
    1 2

    [kernel]
    mean-field     # single-site | mean-field | blocks | matrix

``kernel = blocks`` requires the partition section. ``kernel = matrix``
is followed by n rows of the doubly stochastic symmetric matrix. For
every kernel the governing partition is *derived* from the kernel's
irreducible blocks; a partition section given alongside a non-blocks
kernel must agree with the derived one (it is a cross-check, not an
override). J must be symmetric; the parser names the offending entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .collision import KERNEL_KINDS, CollisionContext, build_transport_kernel, kernel_components
from .core import check_interaction, check_partition, check_sites
from .errors import ModelFormatError


@dataclass(frozen=True)
class Model:
    n: int
    J: np.ndarray
    h: np.ndarray
    kernel_kind: str
    K: np.ndarray
    blocks: tuple = field(default=())  # irreducible blocks of K, 0-based

    def context(self):
        return CollisionContext(self.J, self.K)


def _sections(text):
    out = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current in out:
                raise ModelFormatError(f"line {lineno}: duplicate section [{current}]")
            out[current] = []
            continue
        if current is None:
            raise ModelFormatError(f"line {lineno}: content before any section header")
        out[current].append((lineno, line))
    return out

def _floats(lineno, line):
    """The numbers of one line, each finite; else ModelFormatError naming the line."""
    try:
        row = [float(x) for x in line.split()]
    except ValueError as exc:
        raise ModelFormatError(f"line {lineno}: bad number: {exc}") from None
    if not np.isfinite(row).all():
        raise ModelFormatError(f"line {lineno}: entries must be finite, got {line!r}")
    return row


def _float_row(lineno, line, n, what):
    row = _floats(lineno, line)
    if len(row) != n:
        raise ModelFormatError(f"line {lineno}: {what} row needs {n} entries, got {len(row)}")
    return row


def parse_model(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from None
    sec = _sections(text)

    if "model" not in sec:
        raise ModelFormatError("missing [model] section")
    n = None
    for lineno, line in sec["model"]:
        key, _, val = line.partition("=")
        if key.strip() != "n":
            raise ModelFormatError(f"line {lineno}: unknown [model] key {key.strip()!r}")
        try:
            n = int(val.strip())
        except ValueError:
            raise ModelFormatError(f"line {lineno}: n must be an integer") from None
    if n is None:
        raise ModelFormatError("[model] must set n")
    try:
        check_sites(n)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None

    if "j" not in sec:
        raise ModelFormatError("missing [J] section")
    rows = sec["j"]
    if len(rows) != n:
        raise ModelFormatError(f"[J] needs {n} rows, got {len(rows)}")
    J = np.array([_float_row(ln, line, n, "J") for ln, line in rows])
    try:
        check_interaction(J, n)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None

    if "h" in sec:
        rows = sec["h"]
        if len(rows) != 1:
            raise ModelFormatError("[h] must be a single row")
        h = np.array(_float_row(rows[0][0], rows[0][1], n, "h"))
    else:
        h = np.zeros(n)

    declared = None
    if "partition" in sec:
        blocks = []
        for lineno, line in sec["partition"]:
            try:
                sites = [int(x) for x in line.split()]
            except ValueError:
                raise ModelFormatError(f"line {lineno}: partition rows are integers") from None
            if any(x < 1 or x > n for x in sites):
                raise ModelFormatError(f"line {lineno}: partition sites must be in 1..{n}")
            blocks.append(tuple(x - 1 for x in sites))
        try:
            declared = check_partition(blocks, n)
        except ValueError as exc:
            raise ModelFormatError(f"bad partition: {exc}") from None

    if "kernel" not in sec or not sec["kernel"]:
        raise ModelFormatError("missing [kernel] section")
    kid_line, kid = sec["kernel"][0]
    if kid not in KERNEL_KINDS:
        raise ModelFormatError(
            f"line {kid_line}: kernel must be one of {', '.join(KERNEL_KINDS)}"
        )
    matrix = None
    if kid == "matrix":
        rows = sec["kernel"][1:]
        if len(rows) != n:
            raise ModelFormatError(f"matrix kernel needs {n} rows after the kind")
        matrix = np.array([_float_row(ln, line, n, "kernel") for ln, line in rows])
    elif len(sec["kernel"]) > 1:
        raise ModelFormatError(f"kernel {kid!r} takes no extra rows")
    if kid == "blocks" and declared is None:
        raise ModelFormatError("kernel = blocks requires a [partition] section")
    try:
        K = build_transport_kernel(kid, n, blocks=declared, matrix=matrix)
    except ValueError as exc:
        raise ModelFormatError(f"bad kernel: {exc}") from None

    derived = kernel_components(K)
    if declared is not None and kid != "blocks" and tuple(sorted(declared)) != derived:
        raise ModelFormatError(
            f"declared partition {tuple(tuple(x + 1 for x in b) for b in declared)} "
            "does not match the kernel's irreducible blocks"
        )
    return Model(n=n, J=J, h=h, kernel_kind=kid, K=K, blocks=derived)


def load_matrix(path):
    """Whitespace matrix file (comments with '#')."""
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append(_floats(lineno, line))
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ModelFormatError(f"{path}: ragged or empty matrix")
    return np.array(rows)


def load_vector(path):
    m = load_matrix(path)
    if 1 not in m.shape and m.ndim == 2:
        raise ModelFormatError(f"{path}: expected a single row or column")
    return m.ravel()
