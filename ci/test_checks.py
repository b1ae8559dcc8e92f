"""Each check in checks.py, and the strict loader, can fail.

  python3 -m unittest discover -s ci -p 'test_*.py'
"""

import copy
import unittest

import checks
from strict_json import loads


class StrictJson(unittest.TestCase):
    def test_rejects_nan_infinity_and_duplicate_keys(self):
        for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}',
                     '{"a": 1, "b": {"c": 2, "c": 3}}'):
            with self.subTest(text=text), self.assertRaises(ValueError):
                loads(text)

    def test_accepts_plain_json(self):
        self.assertEqual(loads('{"a": [1, 2.5e3, null]}'),
                         {"a": [1, 2500.0, None]})


class LeafDiffs(unittest.TestCase):
    def test_names_changed_leaf_missing_key_and_length(self):
        a = {"run": {"ipc": 1.5, "seed": 1}, "rows": [1, 2], "n": 3}
        b = {"run": {"ipc": 1.25}, "rows": [1, 2, 3], "n": 3.0}
        self.assertEqual(list(checks.leaf_diffs(a, b)), [
            "n (3 vs 3.0)",
            "rows (length 2 vs 3)",
            "run.ipc (1.5 vs 1.25)",
            "run.seed (only in a)",
        ])

    def test_equal_documents_differ_nowhere(self):
        doc = {"run": {"ipc": 1.5}, "rows": [{"x": 1}]}
        self.assertEqual(list(checks.leaf_diffs(doc, copy.deepcopy(doc))),
                         [])


class CpiRows(unittest.TestCase):
    def row(self, total):
        row = {"workload": "w", "machine": "pubs", "total_cycles": total}
        row.update({f"c{i}": "10" for i in range(checks.CPI_COMPONENTS)})
        return row

    def test_components_that_add_up_pass(self):
        checks.check_cpi_rows([self.row("120"), self.row("120")])

    def test_one_cycle_off_fails(self):
        for total in ("119", "121"):
            with self.subTest(total=total), \
                    self.assertRaises(AssertionError):
                checks.check_cpi_rows([self.row("120"), self.row(total)])


if __name__ == "__main__":
    unittest.main()
