import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def huge():
    """An odd 20,000-bit integer, with the interpreter's default limit of
    4,300 digits on int -> str in force, which its decimal form passes."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield (1 << 19999) + 12345
    sys.set_int_max_str_digits(old)
