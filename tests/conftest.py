"""Test-session settings shared by every test module.

Property tests run under one ``hypothesis`` profile: examples are
derived from each test's name (``derandomize``), so every run draws the
same inputs; no per-example deadline applies, since a cold profile cache
makes the first example of a law slower than the rest; and no example
database is kept.  Hypothesis also caches the constants it reads from
the source; that cache goes to a temporary directory removed at exit, so
a run leaves no ``.hypothesis/`` directory behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

settings.register_profile("steinlab", derandomize=True, deadline=None, database=None)
settings.load_profile("steinlab")
