"""The one local SparkSession factory, shared by ``jobs/`` and the
test suite's ``spark`` fixture."""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """A local session with broadcast joins disabled, so the EXPAND
    joins exercise the shuffle path at toy scale.

    Master and driver memory are read from ``PYSPARK_SUBMIT_ARGS`` when
    the JVM launches; a caller that sets them (``conftest.py`` does)
    must do so before the first session.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
