import importlib.util
import os
import sys

# allow running the suite from a checkout without installing the package;
# a lamorder already on the path, as from an explicit PYTHONPATH, is the one
# tested
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
if os.path.isdir(SRC) and importlib.util.find_spec("lamorder") is None:
    sys.path.insert(0, SRC)
