"""Test-run settings shared by every test module.

pytest imports `tamilstem` in-process, and Python would then write
``src/tamilstem/__pycache__``.  Whether that directory exists changes
how fast the package starts on its next run from the same checkout, so
a test run writes no bytecode: not through pytest's own imports, and not
through any interpreter or console script a test starts, which inherits
this environment.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
