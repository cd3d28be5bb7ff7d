"""``python -m evostab``: the ``evostab`` command line (see :mod:`.cli`)."""

import sys

from .cli import main

sys.exit(main())
