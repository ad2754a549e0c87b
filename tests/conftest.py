from hypothesis import settings

# derandomized examples keep tier-1 reproducible; no deadline, because a
# shared or slow machine would otherwise fail examples on time alone
settings.register_profile("nstar", derandomize=True, deadline=None)
settings.load_profile("nstar")
