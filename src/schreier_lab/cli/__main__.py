"""``python -m schreier_lab.cli``: the ``schreier-lab`` program."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
