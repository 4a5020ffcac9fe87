"""Tests for run.py's output check.

Run from the root of a checkout:

    python3 -m unittest discover -s idsbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats  # noqa: E402
import run  # noqa: E402


def raw_run(*outputs):
    """An untraced runner result with one pass per given {key: out} map."""
    passes = [{"ops": [{"key": k, "out": out, "ok": True, "s": 1.0}
                       for k, out in outs.items()]}
              for outs in outputs]
    return {"passes": passes, "trace": 0}


class CheckTest(unittest.TestCase):
    def check(self, refs, raw):
        with mock.patch.object(run, "load_references", return_value=refs):
            attempted, failed, source, _ = run.check("detect", 1, raw)
        return attempted, failed, source

    def test_recorded_digests_pass(self):
        refs = {"A/0": benchstats.digest("a"), "B/0": benchstats.digest("b")}
        self.assertEqual(self.check(refs, raw_run({"A/0": "a", "B/0": "b"})),
                         (2, 0, "recorded"))

    def test_different_output_fails(self):
        refs = {"A/0": benchstats.digest("a"), "B/0": benchstats.digest("b")}
        self.assertEqual(self.check(refs, raw_run({"A/0": "a", "B/0": "x"})),
                         (2, 1, "recorded"))

    def test_key_missing_from_recorded_references_fails(self):
        refs = {"A": benchstats.digest("a")}
        self.assertEqual(self.check(refs, raw_run({"A/0": "a"})),
                         (1, 1, "recorded"))

    def test_unrecorded_seed_checks_repeats_against_the_first(self):
        same = raw_run({"A/0": "a"}, {"A/0": "a"})
        self.assertEqual(self.check({}, same), (2, 0, "self"))
        changed = raw_run({"A/0": "a"}, {"A/0": "x"})
        self.assertEqual(self.check({}, changed), (2, 1, "self"))


if __name__ == "__main__":
    unittest.main()
