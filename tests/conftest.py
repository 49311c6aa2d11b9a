from hypothesis import settings

# Property tests draw the same examples on every run and never time out
# on a slow host; pytest --hypothesis-profile=default explores at random.
settings.register_profile("fedgeo", deadline=None, derandomize=True)
settings.load_profile("fedgeo")
