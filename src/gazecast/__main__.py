"""``python -m gazecast``: the same command line as the ``gazecast`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
