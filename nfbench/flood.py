"""The ``live_flood`` scenario, shared by the generator (``livebench.py``)
and the policer process (``policer.py``): capacity, hosts and rates."""

CAPACITY_BPS = 10e6
LEGIT_BPS = 1.5e6
ATTACK_BPS = 6e6
LEGIT = ("legit0", "legit1")
ATTACKERS = ("atk0", "atk1")
VICTIM = "victim"
HOSTS = (VICTIM,) + LEGIT + ATTACKERS
