"""motioncode: joint sparse stochastic-process models for collections of
noisy, uneven-length time series. Train one model per labeled collection,
then classify, forecast, and read off the most informative timestamps."""

from .core import (
    MotionCodeError,
    InputError,
    ParseError,
    ValidationError,
    SplitError,
    VersionError,
    NumericalError,
    SingularMatrixError,
    TimeSeries,
    Collection,
    Dataset,
    Hyperparams,
    ModelParams,
    Prediction,
    code_to_timestamps,
)

__version__ = "0.1.0"
