"""Head-contribution analysis tests: the per-token norm definition, report
validation and derived shares/entropy, deterministic aggregation over the
synthetic stream, and the CSV/SVG emitters."""

import csv
import dataclasses

import numpy as np
import pytest

from multiformer.analysis import (ANALYSIS_BATCH, CSV_HEADER,
                                  ContributionReport, aggregate_contributions,
                                  emit_report, head_contribution,
                                  write_report_csv, write_report_svg)
from multiformer.config import toy_model_config
from multiformer.mhma import HeadSpec, init_mhma_weights, mhma_forward
from multiformer.model import ModelConfig, encode, init_model_weights
from multiformer.tensor import Tensor
from multiformer.training import SyntheticTaskSpec, gen_synthetic_batch

SPECS = [HeadSpec("full"), HeadSpec("local", window=4),
         HeadSpec("conv", kernel=3, stride=2)]


def small_report():
    med = np.array([[3.0, 1.0, 0.0], [2.0, 2.0, 2.0]])
    mechs = [["full", "local(4)", "conv(3,2)"]] * 2
    return ContributionReport(medians=med, mechanisms=mechs,
                              sample_count=10, token_count=40)


def analysis_setup(layers=2):
    spec = SyntheticTaskSpec(symbol_count=6, target_len_min=4,
                             target_len_max=6, redundancy=2, feature_dim=4,
                             noise=0.05)
    config = ModelConfig(d_model=6, heads=3, encoder_layers=[SPECS] * layers,
                         decoder_layers=1, ffn_dim=8,
                         vocab_size=spec.vocab_size,
                         input_feature_dim=spec.feature_dim)
    weights = init_model_weights(config, seed=0)
    return spec, config, weights


class TestHeadContribution:
    def test_norm_of_projected_head_output(self):
        rng = np.random.default_rng(0)
        w = init_mhma_weights(6, SPECS, rng)
        x = Tensor(rng.normal(size=(5, 6)))
        out = mhma_forward(x, SPECS, w)
        c = head_contribution(out.z, w)
        assert c.shape == (5, 3)
        d_h = w.head_dim
        for h in range(3):
            xi = out.z[h].data @ w.wo.data[:, h * d_h:(h + 1) * d_h].T
            np.testing.assert_allclose(c[:, h],
                                       np.linalg.norm(xi, axis=-1),
                                       rtol=1e-6)


class TestContributionReport:
    def test_shares_rows_sum_to_one(self):
        shares = small_report().normalized_shares()
        np.testing.assert_allclose(shares.sum(axis=1), np.ones(2), atol=1e-12)
        np.testing.assert_allclose(shares[0], [0.75, 0.25, 0.0])

    def test_negative_median_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ContributionReport(medians=np.array([[1.0, -0.1]]),
                               mechanisms=[["full", "full"]],
                               sample_count=1, token_count=1)

    def test_label_grid_must_match(self):
        with pytest.raises(ValueError, match="mechanism"):
            ContributionReport(medians=np.zeros((2, 2)) + 1.0,
                               mechanisms=[["full", "full"]],
                               sample_count=1, token_count=1)

    def test_zero_layer_total_rejected(self):
        rep = ContributionReport(medians=np.array([[0.0, 0.0]]),
                                 mechanisms=[["full", "full"]],
                                 sample_count=1, token_count=1)
        with pytest.raises(ValueError, match="zero total"):
            rep.normalized_shares()

    def test_entropy_extremes(self):
        rep = ContributionReport(
            medians=np.array([[2.0, 2.0, 2.0, 2.0], [5.0, 0.0, 0.0, 0.0]]),
            mechanisms=[["full"] * 4] * 2, sample_count=1, token_count=1)
        ent = rep.layer_entropy()
        assert ent[0] == pytest.approx(np.log(4), abs=1e-12)
        assert ent[1] == 0.0

    def test_entropy_known_value(self):
        rep = ContributionReport(medians=np.array([[3.0, 1.0]]),
                                 mechanisms=[["full", "local(4)"]],
                                 sample_count=1, token_count=1)
        expect = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        assert rep.layer_entropy()[0] == pytest.approx(expect, abs=1e-12)


class TestAggregate:
    def test_shape_labels_and_token_count(self):
        spec, config, weights = analysis_setup()
        # fixed-length task: valid token count is exact
        spec = SyntheticTaskSpec(symbol_count=6, target_len_min=5,
                                 target_len_max=5, redundancy=2,
                                 feature_dim=4, noise=0.05)
        rep = aggregate_contributions(config, weights, spec, samples=7, seed=3)
        assert rep.shape == (2, 3)
        assert rep.mechanisms == [["full", "local(4)", "conv(3,2)"]] * 2
        assert rep.sample_count == 7
        # 5 * redundancy = 10 frames subsample to ceil(ceil(10 / 2) / 2) = 3
        assert rep.token_count == 7 * 3
        assert (rep.medians >= 0).all()

    def test_medians_match_per_cell_pools(self):
        """Each (layer, head) median equals np.median over that cell's own
        pool, rebuilt here from encode and head_contribution on the same
        seeded batches (two of them: ANALYSIS_BATCH, then the rest)."""
        spec, config, weights = analysis_setup()
        samples, seed = ANALYSIS_BATCH + 7, 4
        rep = aggregate_contributions(config, weights, spec, samples, seed)
        rng = np.random.default_rng(seed)
        pools = {}
        for b in (ANALYSIS_BATCH, 7):
            batch = gen_synthetic_batch(spec, b, rng)
            _, keep, heads = encode(batch.source_features, batch.source_mask,
                                    config, weights)
            for li, (z, layer) in enumerate(zip(heads, weights.encoder)):
                c = head_contribution(z, layer.mhma)
                for h in range(config.heads):
                    pools.setdefault((li, h), []).append(c[..., h][keep])
        expect = np.zeros((2, 3))
        for (li, h), pool in pools.items():
            expect[li, h] = np.median(np.concatenate(pool))
        assert np.array_equal(rep.medians, expect)

    def test_bit_identical_reruns(self):
        spec, config, weights = analysis_setup()
        a = aggregate_contributions(config, weights, spec, samples=12, seed=9)
        b = aggregate_contributions(config, weights, spec, samples=12, seed=9)
        np.testing.assert_array_equal(a.medians, b.medians)

    def test_seed_matters(self):
        spec, config, weights = analysis_setup()
        a = aggregate_contributions(config, weights, spec, samples=12, seed=0)
        b = aggregate_contributions(config, weights, spec, samples=12, seed=1)
        assert (a.medians != b.medians).any()

    def test_dropout_config_runs_in_inference_mode(self):
        """A toy preset with dropout 0.1 analyzes without an rng, equal
        to the same weights with dropout off, and reruns bit for bit."""
        spec, _, _ = analysis_setup()
        plain = toy_model_config("multiformer_lc", vocab_size=spec.vocab_size,
                                 feature_dim=spec.feature_dim)
        config = dataclasses.replace(plain, dropout=0.1)
        weights = init_model_weights(plain, seed=0)
        a = aggregate_contributions(config, weights, spec, samples=5, seed=2)
        b = aggregate_contributions(config, weights, spec, samples=5, seed=2)
        ref = aggregate_contributions(plain, weights, spec, samples=5, seed=2)
        np.testing.assert_array_equal(a.medians, b.medians)
        np.testing.assert_array_equal(a.medians, ref.medians)

    def test_needs_at_least_one_sample(self):
        spec, config, weights = analysis_setup()
        with pytest.raises(ValueError, match="^samples must be >= 1, got 0$"):
            aggregate_contributions(config, weights, spec, samples=0, seed=0)

    def test_negative_seed_names_its_field(self):
        spec, config, weights = analysis_setup()
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            aggregate_contributions(config, weights, spec, samples=1, seed=-1)


class TestEmit:
    def test_csv_layout(self, tmp_path):
        rep = small_report()
        path = tmp_path / "report.csv"
        write_report_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "full"
        assert float(first[3]) == 3.0
        assert float(first[4]) == 0.75

    def test_csv_reruns_byte_identical(self, tmp_path):
        spec, config, weights = analysis_setup()
        rep = aggregate_contributions(config, weights, spec, samples=9, seed=2)
        write_report_csv(rep, tmp_path / "a.csv")
        write_report_csv(rep, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_failed_write_leaves_previous_report(self, tmp_path, monkeypatch):
        """A report that dies partway leaves the previous file byte for
        byte, and no sibling .tmp file."""
        rep = small_report()
        path = tmp_path / "report.csv"
        write_report_csv(rep, path)
        before = path.read_bytes()
        real_writer = csv.writer

        class DiesOnThirdRow:
            def __init__(self, fh, **kw):
                self.inner, self.rows = real_writer(fh, **kw), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 3:
                    raise OSError("disk full")
                return self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", DiesOnThirdRow)
        with pytest.raises(OSError, match="disk full"):
            write_report_csv(rep, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_svg_structure(self, tmp_path):
        rep = small_report()
        path = tmp_path / "report.svg"
        write_report_svg(rep, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") == 6
        assert "entropy" in text and "layer 1" in text
        # mechanism border colors present
        assert "#e87d0d" in text and "#8e44ad" in text

    def test_emit_missing_directory(self, tmp_path):
        rep = small_report()
        with pytest.raises(OSError, match="directory"):
            emit_report(rep, tmp_path / "nope" / "r.csv", tmp_path / "r.svg")
        with pytest.raises(OSError, match="directory"):
            emit_report(rep, tmp_path / "r.csv", tmp_path / "nope" / "r.svg")

    @pytest.mark.parametrize("missing", ["csv", "svg"])
    def test_emit_writes_neither_file_when_a_directory_is_missing(self, tmp_path,
                                                                   missing):
        paths = {"csv": tmp_path / "r.csv", "svg": tmp_path / "r.svg"}
        paths[missing] = tmp_path / "nope" / f"r.{missing}"
        with pytest.raises(OSError):
            emit_report(small_report(), paths["csv"], paths["svg"])
        assert list(tmp_path.rglob("*")) == []
