"""Writes a Zipf s=1.4 word trace (~30k events) as CSV.

Usage: python3 ci/zipf_trace.py OUT.csv

5000 users tweet 3-8 words drawn from a 50k-word Zipf(1.4) vocabulary, at
most one tweet per user per 61 s, so each tweet is one segment. It is more
skewed than the synthetic twitter trace (s=1.0): one hot word sits in most
tweets. The seed is fixed, so the file is the same on every run.
"""

import bisect
import itertools
import random
import sys

random.seed(7)
users, vocab, tweets, s = 5000, 50000, 6000, 1.4
cdf = list(itertools.accumulate(
    1.0 / (r + 1) ** s for r in range(vocab)))
last, rows, t = {}, [], 0
for _ in range(tweets):
    t += random.randint(1, 250)
    user = random.randrange(users)
    if user in last and t - last[user] <= 61000:
        continue  # one tweet per xi window: a tweet is a segment
    last[user] = t
    for _ in range(random.randint(3, 8)):
        word = bisect.bisect_left(cdf, random.random() * cdf[-1])
        rows.append(f"{user},{word},{t}")
with open(sys.argv[1], "w") as f:
    f.write("stream,object,time_ms\n" + "\n".join(rows) + "\n")
