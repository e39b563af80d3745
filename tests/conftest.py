from hypothesis import settings

# derandomize: every run draws the same examples, so Tier-1 is repeatable
settings.register_profile("ci", deadline=None, max_examples=60,
                          derandomize=True)
settings.load_profile("ci")
