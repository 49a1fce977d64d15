from hypothesis import settings

# `pytest tests/test_fuzz.py --hypothesis-profile=fuzz` drives every
# subcommand with 2000 examples instead of the default 100.
settings.register_profile("fuzz", max_examples=2000)
