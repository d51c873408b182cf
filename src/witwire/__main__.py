"""``python -m witwire``: the same command line as the ``witwire`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
