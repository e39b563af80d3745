from hypothesis import settings

settings.register_profile("ci", deadline=None, max_examples=60)
settings.load_profile("ci")
