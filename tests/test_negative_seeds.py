"""A negative seed is rejected by name where it is set, before any data is read.

NumPy's generators take only non-negative seeds, and would reject -1 only
once seeded, with a message that names no setting.
"""

import pytest

from kfunmix import cli
from kfunmix.pipeline import PipelineConfig
from kfunmix.protocols import P2Config, protocol_p1
from kfunmix.synthdata import SynthConfig


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda seed: PipelineConfig(n_endmembers=3, seed=seed), "seed"),
        (lambda seed: SynthConfig(n_spectra=10, n_channels=20, n_endmembers=2, seed=seed), "seed"),
        (lambda seed: P2Config(n_essential=10, n_clusters=2, seed=seed), "seed"),
        (lambda seed: protocol_p1(10, shuffle_seed=seed), "shuffle_seed"),
    ],
    ids=["PipelineConfig", "SynthConfig", "P2Config", "protocol_p1"],
)
class TestEachSetting:
    def test_rejects_a_negative_seed_by_name(self, make, name):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got -1$"):
            make(-1)

    def test_takes_zero(self, make, name):
        make(0)


@pytest.fixture
def reads(monkeypatch):
    """The dataset directories the CLI reads, recorded instead of read."""
    paths = []

    def load_dataset(path):
        paths.append(path)
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(cli, "load_dataset", load_dataset)
    return paths


@pytest.mark.parametrize(
    "args, name",
    [
        (["run", "--n-endmembers", "3", "--seed", "-1"], "seed"),
        (["order", "--protocol", "p1", "--shuffle", "--seed", "-1"], "shuffle_seed"),
        (["order", "--protocol", "p2", "--n-clusters", "2", "--seed", "-1"], "seed"),
    ],
    ids=["run", "order-p1-shuffle", "order-p2"],
)
def test_cli_exits_2_before_reading_the_dataset(tmp_path, capsys, reads, args, name):
    out = tmp_path / "out.csv"
    rc = cli.main([*args, "--data", str(tmp_path / "ds"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {name} must be >= 0, got -1\n"
    assert reads == [] and not out.exists()


def test_synth_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = cli.main([
        "synth", "--out", str(out), "--n-spectra", "10", "--n-channels", "20",
        "--n-endmembers", "2", "--seed", "-1",
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()
