"""Run one seeded CLI cycle and print a sha256 prefix of each output.

    python3 tools/seeded_outputs.py

The cycle runs in a temporary directory through ``python -m stampseg``, on the
package under this checkout's ``src/``, with BLAS pinned to one thread:

1. ``synth`` a 12-video, 4-class corpus and ``annotate`` it at random;
2. ``train`` in timestamps mode once per boundary method, with a log;
3. ``eval`` the ``fb`` checkpoint, and write ``boundaries`` with each method;
4. ``train`` in full mode, which reads the labels and none of the stamps,
   then in naive and uniform mode, which read the stamps and none of the
   labels;
5. ``synth`` a second copy of the corpus, ``annotate`` it with
   ``fraction:0.1``, whose consecutive stamps often repeat a class, and
   ``train`` in timestamps mode on it;
6. ``train`` as in step 2 with ``fb`` once more, validating on the test split
   and checkpointing every third epoch, so that both run through the one
   per-epoch hook; its checkpoint equals ``fb.bin``.

It prints one ``<output> <sha256 prefix>`` line per output, sixteen in all:
three timestamps-mode checkpoints, three logs, the ``eval`` line, each
``boundaries`` directory's files concatenated in name order, the full-,
naive- and uniform-mode checkpoints, the second corpus's stamp files
(concatenated in name order) and checkpoint, and the validated run's log. To
check that a refactor keeps every seeded output, run it in the parent checkout
and in the changed one and compare the lines. Another BLAS build may round differently, so compare runs
made on one machine. The exit status is non-zero if any command fails.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Not change.BOUNDARY_METHODS: its "uniform" rule would train into uniform.bin, which
# the uniform-mode run below writes, and the sixteen lines would change.
METHODS = ("fb", "s2s_features", "s2s_prob")
TRAIN = ["--epochs", "8", "--warmup", "3", "--stages", "2",
         "--layers", "4", "--channels", "16", "--batch", "4", "--seed", "5"]


def _digest(*paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **BLAS_THREADS)

    def stampseg(*argv) -> str:
        done = subprocess.run(
            [sys.executable, "-m", "stampseg", *map(str, argv)],
            env=env, capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"stampseg {argv[0]} exited {done.returncode}")
        return done.stdout

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus, fraction = tmp / "corpus", tmp / "corpus_fraction"
        for root in (corpus, fraction):
            stampseg("synth", "--out", root, "--videos", 12, "--classes", 4, "--frames", 150,
                     "--dim", 8, "--seed", 3)
        stampseg("annotate", "--data", corpus, "--strategy", "random", "--seed", 1)
        lines = []
        for method in METHODS:
            model, log = tmp / f"{method}.bin", tmp / f"{method}.log"
            stampseg("train", "--data", corpus, "--out", model, "--mode", "timestamps",
                     "--boundary", method, *TRAIN, "--log", log)
            lines += [(model.name, _digest(model)), (log.name, _digest(log))]
        model = tmp / "fb.bin"
        eval_out = tmp / "eval.txt"
        eval_out.write_text(stampseg("eval", "--data", corpus, "--model", model))
        lines.append((eval_out.name, _digest(eval_out)))
        for method in METHODS:
            out = tmp / f"boundaries_{method}"
            stampseg("boundaries", "--data", corpus, "--model", model, "--out", out,
                     "--boundary", method)
            lines.append((out.name, _digest(*sorted(out.iterdir()))))
        for mode in ("full", "naive", "uniform"):
            model = tmp / f"{mode}.bin"
            stampseg("train", "--data", corpus, "--out", model, "--mode", mode, *TRAIN)
            lines.append((model.name, _digest(model)))
        stampseg("annotate", "--data", fraction, "--strategy", "fraction:0.1", "--seed", 1)
        lines.append(("timestamps_fraction",
                      _digest(*sorted((fraction / "timestamps").iterdir()))))
        model = tmp / "fraction.bin"
        stampseg("train", "--data", fraction, "--out", model, "--mode", "timestamps", *TRAIN)
        lines.append((model.name, _digest(model)))
        log = tmp / "val.log"
        stampseg("train", "--data", corpus, "--out", tmp / "val.bin", "--mode", "timestamps",
                 "--boundary", "fb", *TRAIN, "--val", "test", "--save-every", 3, "--log", log)
        lines.append((log.name, _digest(log)))
    for name, prefix in lines:
        print(f"{name} {prefix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
