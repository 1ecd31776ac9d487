"""Block numpy for every interpreter started with this directory on
``PYTHONPATH``: each import of numpy or of a numpy submodule then fails as
it would where numpy is not installed. Run the whole suite that way with

    PYTHONPATH=tests/without_numpy:src python -m pytest -q --continue-on-collection-errors
"""

import sys


class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoNumpy())
