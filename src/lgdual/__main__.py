"""``python -m lgdual``: the same command line as the ``lgdual`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
