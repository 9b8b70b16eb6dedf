"""Model file parsing and serialization."""

from pathlib import Path

import numpy as np
import pytest

from spinkac import modelio
from spinkac.errors import ModelFormatError

DEMO = Path(__file__).parent / "data" / "demo-n2.model"


def write_model(path, n, J, h=None, kernel_kind="mean-field", partition=None):
    """Serialize a model in the documented format: the inverse of
    parse_model."""
    lines = ["[model]", f"n = {n}", "", "[J]"]
    for row in np.asarray(J, dtype=float):
        lines.append(" ".join(f"{x:.17g}" for x in row))
    if h is not None and np.any(np.asarray(h) != 0):
        lines += ["", "[h]", " ".join(f"{x:.17g}" for x in np.asarray(h, dtype=float))]
    if partition is not None:
        lines += ["", "[partition]"]
        for b in partition:
            lines.append(" ".join(str(x + 1) for x in b))
    lines += ["", "[kernel]", kernel_kind, ""]
    Path(path).write_text("\n".join(lines))


def parse_text(tmp_path, text):
    p = tmp_path / "m.model"
    p.write_text(text)
    return modelio.parse_model(p)


class TestParse:
    def test_demo_file(self):
        m = modelio.parse_model(DEMO)
        assert m.n == 2
        assert np.array_equal(m.J, np.array([[0.0, 0.25], [0.25, 0.0]]))
        assert np.array_equal(m.h, np.array([0.15, 0.15]))
        assert m.kernel_kind == "mean-field"
        assert m.blocks == ((0, 1),)
        assert m.context().n == 2

    def test_h_defaults_to_zero(self, tmp_path):
        m = parse_text(tmp_path, "[model]\nn = 1\n[J]\n0.0\n[kernel]\nsingle-site\n")
        assert np.array_equal(m.h, np.zeros(1))
        assert m.blocks == ((0,),)

    def test_matrix_kernel_with_check_partition(self, tmp_path):
        text = (
            "[model]\nn = 2\n[J]\n0 0.1\n0.1 0\n"
            "[partition]\n1 2\n"
            "[kernel]\nmatrix\n0.5 0.5\n0.5 0.5\n"
        )
        m = parse_text(tmp_path, text)
        assert m.kernel_kind == "matrix"
        assert np.array_equal(m.K, np.full((2, 2), 0.5))
        assert m.blocks == ((0, 1),)

    def test_blocks_kernel_needs_partition(self, tmp_path):
        text = "[model]\nn = 2\n[J]\n0 0\n0 0\n[kernel]\nblocks\n"
        with pytest.raises(ModelFormatError, match="requires a \\[partition\\]"):
            parse_text(tmp_path, text)

    def test_roundtrip_through_writer(self, tmp_path):
        J = np.array([[0.0, 0.125, 0.0], [0.125, 0.0, 0.0], [0.0, 0.0, 0.0]])
        h = np.array([0.1, -0.2, 1.0 / 3.0])
        out = tmp_path / "rt.model"
        write_model(out, 3, J, h, kernel_kind="blocks", partition=((0, 1), (2,)))
        m = modelio.parse_model(out)
        assert m.n == 3
        assert np.array_equal(m.J, J)
        assert np.array_equal(m.h, h)  # %.17g keeps doubles bit for bit
        assert m.blocks == ((0, 1), (2,))


class TestErrors:
    def test_missing_model_section(self, tmp_path):
        with pytest.raises(ModelFormatError, match="missing \\[model\\]"):
            parse_text(tmp_path, "[J]\n0.0\n[kernel]\nmean-field\n")

    def test_content_before_section(self, tmp_path):
        with pytest.raises(ModelFormatError, match="before any section"):
            parse_text(tmp_path, "n = 1\n[model]\n")

    def test_duplicate_section(self, tmp_path):
        text = "[model]\nn = 1\n[J]\n0\n[J]\n0\n[kernel]\nsingle-site\n"
        with pytest.raises(ModelFormatError, match="duplicate section"):
            parse_text(tmp_path, text)

    def test_wrong_row_count(self, tmp_path):
        text = "[model]\nn = 2\n[J]\n0 0\n[kernel]\nmean-field\n"
        with pytest.raises(ModelFormatError, match="needs 2 rows"):
            parse_text(tmp_path, text)

    def test_asymmetric_interaction_names_the_entry(self, tmp_path):
        text = "[model]\nn = 2\n[J]\n0 0.3\n0.2 0\n[kernel]\nmean-field\n"
        with pytest.raises(ModelFormatError, match="not symmetric at \\(1, 2\\)"):
            parse_text(tmp_path, text)

    def test_unknown_kernel_kind(self, tmp_path):
        text = "[model]\nn = 1\n[J]\n0\n[kernel]\nnearest\n"
        with pytest.raises(ModelFormatError, match="kernel must be one of"):
            parse_text(tmp_path, text)

    def test_partition_kernel_disagreement(self, tmp_path):
        text = (
            "[model]\nn = 2\n[J]\n0 0\n0 0\n"
            "[partition]\n1\n2\n"
            "[kernel]\nmean-field\n"
        )
        with pytest.raises(ModelFormatError, match="does not match the kernel"):
            parse_text(tmp_path, text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            modelio.parse_model(tmp_path / "absent.model")

    def test_bad_number(self, tmp_path):
        text = "[model]\nn = 1\n[J]\nzero\n[kernel]\nsingle-site\n"
        with pytest.raises(ModelFormatError, match="bad number"):
            parse_text(tmp_path, text)


class TestMatrixFiles:
    def test_load_matrix_skips_comments(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("# demo\n1 2\n3 4   # trailing\n")
        assert np.array_equal(modelio.load_matrix(p), np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_ragged_matrix_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2\n3\n")
        with pytest.raises(ModelFormatError, match="ragged"):
            modelio.load_matrix(p)

    def test_load_vector_wants_one_row(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 2 3\n")
        assert np.array_equal(modelio.load_vector(p), np.array([1.0, 2.0, 3.0]))
        p.write_text("1 2\n3 4\n")
        with pytest.raises(ModelFormatError, match="single row or column"):
            modelio.load_vector(p)
