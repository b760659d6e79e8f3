"""Checks on the outputs of one `edmlab run`, done apart from the program.

The file formats are read with this module's own parsers, and every
expected value is derived from the run's configuration or from
properties the method must have, never from a stored copy of an earlier
output.  `check_run` returns the list of failed checks (empty when all
hold) together with the figures the benchmark reports.
"""

from __future__ import annotations

import hashlib
import json
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

#: provenance tags as stored in a manifest, in the row order of every 3x3
#: confusion matrix edmlab writes: clean, closed-set, open-set
CLEAN, CLOSED, OPEN = 0, 1, 2
GROUP_ORDER = (CLEAN, CLOSED, OPEN)

#: files that must be byte-identical between two runs of one seed
DETERMINISTIC = ("train.manifest", "test.manifest", "epochs.jsonl",
                 "netd_best.ckpt", "netd_last.ckpt", "nets_last.ckpt",
                 "loss_histogram.csv", "posteriors.csv", "features.csv",
                 "eval.json")


def _split_trailer(blob: bytes, what: str) -> bytes:
    if len(blob) < 8 or struct.unpack("<Q", blob[-8:])[0] != len(blob) - 8:
        raise ValueError(f"{what}: length trailer does not match")
    return blob[:-8]


def read_manifest(path: Path) -> dict:
    """Header fields and record columns of a manifest file."""
    payload = _split_trailer(path.read_bytes(), path.name)
    head, _, body = payload.partition(b"\n")
    fields = dict(part.split("=", 1) for part in head.decode().split()[1:])
    n, d = int(fields["n"]), int(fields["d"])
    rec = np.dtype([("id", "<u4"), ("prov", "u1"), ("true", "<i4"),
                    ("obs", "<i4"), ("feat", "<f4", (d,))])
    if len(body) != n * rec.itemsize:
        raise ValueError(f"{path.name}: body size does not match n={n}, d={d}")
    records = np.frombuffer(body, dtype=rec)
    return {"n": n, "prov": records["prov"], "true": records["true"],
            "feat": records["feat"].astype(np.float64)}


def read_checkpoint(path: Path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) pairs of a checkpoint, widened to float64."""
    payload = _split_trailer(path.read_bytes(), path.name)
    head, _, body = payload.partition(b"\n")
    arch = head.decode().split()[2]
    widths = [int(w) for w in arch[len("arch="):].split(",")]
    values = np.frombuffer(body, dtype="<f4").astype(np.float64)
    layers, offset = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = values[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, values[offset:offset + fan_out]))
        offset += fan_out
    if offset != values.size:
        raise ValueError(f"{path.name}: body does not match arch {widths}")
    return layers


def predict(layers, x: np.ndarray) -> np.ndarray:
    """Argmax class of a rectifier MLP: matmul + bias, ReLU between layers."""
    for i, (w, b) in enumerate(layers):
        x = x @ w + b
        if i < len(layers) - 1:
            x = np.maximum(x, 0.0)
    return np.argmax(x, axis=1)


def half_up(x: Fraction) -> int:
    return int((x + Fraction(1, 2)) // 1)


def expected_counts(n: int, rho: str, omega: str) -> tuple[int, int, int]:
    """(clean, closed, open) from exact half-up rounding of rho*omega*n and
    rho*(1-omega)*n, with rho and omega taken as the decimals they print as."""
    r, w = Fraction(rho), Fraction(omega)
    closed = half_up(r * w * n)
    open_ = half_up(r * (1 - w) * n)
    return n - closed - open_, closed, open_


def balanced_accuracy(matrix) -> float:
    """Mean recall over the provenance rows that are present."""
    m = np.asarray(matrix, dtype=np.int64)
    rows = m.sum(axis=1)
    present = rows > 0
    return float((np.diag(m)[present] / rows[present]).mean())


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(out: Path, *, classes: int, per_class: int, rho: str,
              omega: str, epochs: int, algo: str, stdout: str
              ) -> tuple[list[str], dict]:
    """Check every output of one run; return (failures, figures)."""
    errors: list[str] = []

    def expect(ok, message):
        if not ok:
            errors.append(message)

    n = classes * per_class
    train = read_manifest(out / "train.manifest")
    test = read_manifest(out / "test.manifest")
    counts = tuple(int((train["prov"] == p).sum()) for p in GROUP_ORDER)
    want = expected_counts(n, rho, omega)
    expect(train["n"] == n, f"train.manifest has n={train['n']}, want {n}")
    expect(counts == want,
           f"provenance counts {counts} != half-up rounding {want}")
    n_test = classes * max(1, per_class // 2)
    expect(test["n"] == n_test and not np.any(test["prov"] != CLEAN),
           f"test.manifest is not {n_test} clean samples")

    records = [json.loads(line) for line in
               (out / "epochs.jsonl").read_text().splitlines()]
    expect([r["epoch"] for r in records] == list(range(epochs)),
           f"epochs.jsonl does not hold epochs 0..{epochs - 1}")
    for r in records:
        expect(r["n_x"] + r["n_u"] + r["n_o"] == n,
               f"epoch {r['epoch']}: n_x + n_u + n_o != {n}")
        if algo == "edm":
            conf = np.asarray(r["confusion"])
            expect(conf.sum() == n and tuple(conf.sum(axis=1)) == counts,
                   f"epoch {r['epoch']}: confusion rows do not sum to "
                   f"the provenance counts")
            expect(abs(r["split_balanced_accuracy"]
                       - balanced_accuracy(conf)) <= 1e-12,
                   f"epoch {r['epoch']}: split balanced accuracy is not the "
                   f"mean row recall of its confusion matrix")

    summary = json.loads((out / "eval.json").read_text())
    hits = predict(read_checkpoint(out / "netd_last.ckpt"), test["feat"])
    recomputed = float(np.mean(hits == test["true"]))
    acc = summary["test_accuracy"]
    expect(recomputed == acc,
           f"test accuracy of netd_last.ckpt is {recomputed}, eval.json "
           f"says {acc}")
    expect(bool(records) and records[-1]["test_accuracy"] == acc,
           "eval.json test accuracy differs from the last epoch")
    expect(acc > 1.0 / classes, f"test accuracy {acc} is not above chance")
    expect(tuple(summary["provenance_counts"]) == counts,
           "eval.json provenance counts differ from train.manifest")
    expect(np.asarray(summary["confusion"]).sum() == n,
           "eval.json confusion matrix does not sum to n")
    split_ba = summary["split_balanced_accuracy"]
    expect(abs(split_ba - balanced_accuracy(summary["confusion"])) <= 1e-12,
           "eval.json split balanced accuracy is not its mean row recall")

    post = np.loadtxt(out / "posteriors.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    expect(post.shape == (n, 5), f"posteriors.csv is not {n} rows x 5")
    if post.shape == (n, 5):
        expect(np.abs(post[:, 1:4].sum(axis=1) - 1.0).max() <= 1e-6,
               "a posteriors.csv row does not sum to 1 within 1e-6")
        expect(np.array_equal(post[:, 4], train["prov"]),
               "posteriors.csv provenance column differs from the manifest")
    hist = np.loadtxt(out / "loss_histogram.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    expect(tuple(int(c) for c in hist[:, 2:5].sum(axis=0)) == counts,
           "loss_histogram.csv columns do not sum to the provenance counts")
    with open(out / "features.csv", "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in iter(
            lambda: fh.read(1 << 20), b"")) - 1
    expect(rows == n, f"features.csv has {rows} rows, want {n}")

    manifest = json.loads((out / "run_manifest.json").read_text())
    expect(manifest["outcome"] == "ok", "run_manifest.json outcome is not ok")
    missing = [a for a in manifest["artifacts"] if not (out / a).is_file()]
    expect(not missing, f"run_manifest.json lists missing files {missing}")
    printed = json.loads(stdout.strip().splitlines()[-1])
    expect(printed["test_accuracy"] == acc
           and printed["split_balanced_accuracy"] == split_ba,
           "printed result differs from eval.json")

    digests = {name: digest(out / name) for name in DETERMINISTIC
               if (out / name).is_file()}
    return errors, {"test_acc_last": acc, "split_ba": split_ba,
                    "digests": digests}
