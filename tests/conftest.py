import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# the one hypothesis profile: no deadline, since a draw's time depends on the
# host; each test sets its own max_examples
settings.register_profile("ssurb", deadline=None)
settings.load_profile("ssurb")
