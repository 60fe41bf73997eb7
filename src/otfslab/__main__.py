"""``python -m otfslab``: the same command line as the ``otfslab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
