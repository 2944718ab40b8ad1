"""Smoke test of the order-comparison script on a tiny set.

The set is one the stream unmixes without a kfunmix UserWarning (pytest turns
those into errors): at 90 x 40 the default eta keeps one harmonic and
the two estimated endmembers collapse into one.
"""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_orders.py"
spec = importlib.util.spec_from_file_location("compare_orders", SCRIPT)
compare_orders = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_orders)


def test_main_writes_one_row_per_seed_and_protocol(tmp_path, capsys):
    out = tmp_path / "orders.csv"
    rc = compare_orders.main([
        "--seeds", "2", "--n-spectra", "90", "--n-channels", "60", "--n-endmembers", "2",
        "--n-init", "10", "--n-clusters", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "seed,protocol,n_stream,final_asad_deg,t_first_hit,median_step_ms"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("0", "p1", "90"), ("0", "p2", "30"), ("1", "p1", "90"), ("1", "p2", "30"),
    ]
    for row in rows:
        assert float(row[3]) >= 0.0 and float(row[5]) > 0.0
        assert 11 <= int(row[4]) <= int(row[2])
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"wrote 2 replicate pairs to {out}"
    assert printed[1].startswith("diversity order reached (final + 1 deg) earlier in ")
    assert printed[1].endswith("/2 replicates")
