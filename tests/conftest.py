from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.register_profile("deep", deadline=None, max_examples=500)
settings.load_profile("suite")
