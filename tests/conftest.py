import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and a failure
# prints the blob that replays it; example counts stay as each test sets them
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
