from hypothesis import settings

# Every property test replays the same examples on every run, and the
# generic-loop oracles at degree 300 may take longer than hypothesis's
# default 200 ms deadline on a slow or shared machine.
settings.register_profile("carlitz", derandomize=True, deadline=None)
settings.load_profile("carlitz")
