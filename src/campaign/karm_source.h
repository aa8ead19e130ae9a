#ifndef ROICL_CAMPAIGN_KARM_SOURCE_H_
#define ROICL_CAMPAIGN_KARM_SOURCE_H_

#include "alloc/row_source.h"

/// \file
/// The K-arm campaign's names for the allocator's row streams. A campaign
/// streams the same chunks binary allocation does (alloc/row_source.h):
/// one row per user, carrying that user's K (roi, cost) pairs side by
/// side, with binary allocation as the K = 1 stream.

namespace roicl::campaign {

using KArmRowChunk = alloc::RowChunk;
using KArmRowSource = alloc::RowSource;
using VectorKArmRowSource = alloc::VectorRowSource;
using SyntheticKArmRowSource = alloc::SyntheticRowSource;

}  // namespace roicl::campaign

#endif  // ROICL_CAMPAIGN_KARM_SOURCE_H_
