"""Window-based encoder-decoder engine for continuous-time dynamic graphs."""

from .data import (CTDG, EdgeArray, SplitSpec, chronological_split,
                   inductive_split, load_csv, split_edge_indices)
from .downstream import (DecoderParams, TrainConfig, bce_loss, evaluate, evaluate_dnc,
                         evaluate_flp, init_decoder, init_flp_decoder, sample_negatives,
                         train_downstream)
from .encoder import (EncoderParams, NodeEmbeddings, encode, init_encoder,
                      layer_forward)
from .errors import (ConfigError, ConsistencyError, ContractError, DataError,
                     NumericFailure, ShapeError)
from .features import Time2VecParams, common_neighbors_at, init_time2vec, time2vec
from .metrics import auc, average_precision, mrr, recall_at_k
from .optim import Adam
from .pretrain import (DistortionConfig, PretrainConfig, distort, init_predictor, pretrain,
                       vicreg_covariance, vicreg_invariance, vicreg_variance)
from .tensor import MLP, Tape, Tensor, backward
from .windows import Interval, LayeredNeighborhood, build_layered_neighborhood, generate_intervals

__version__ = "0.1.0"
