#include "sim/memimage.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/logging.hh"
#include "support/random.hh"

namespace selvec
{

MemoryImage::MemoryImage(const ArrayTable &arrays) : table(arrays)
{
    data.resize(static_cast<size_t>(arrays.size()));
    for (ArrayId a = 0; a < arrays.size(); ++a) {
        data[static_cast<size_t>(a)].assign(
            static_cast<size_t>(arrays[a].size + 2 * kGuard), 0);
    }
}

size_t
MemoryImage::slot(ArrayId arr, int64_t index, bool store) const
{
    SV_ASSERT(arr >= 0 && arr < table.size(), "bad array id %d", arr);
    const ArrayInfo &info = table[arr];
    if (store) {
        SV_ASSERT(index >= 0 && index < info.size,
                  "store out of bounds: %s[%lld] (size %lld)",
                  info.name.c_str(), static_cast<long long>(index),
                  static_cast<long long>(info.size));
    } else {
        SV_ASSERT(index >= -kGuard && index < info.size + kGuard,
                  "load far out of bounds: %s[%lld] (size %lld)",
                  info.name.c_str(), static_cast<long long>(index),
                  static_cast<long long>(info.size));
    }
    return static_cast<size_t>(index + kGuard);
}

double
MemoryImage::loadF(ArrayId arr, int64_t index) const
{
    return std::bit_cast<double>(
        data[static_cast<size_t>(arr)][slot(arr, index, false)]);
}

int64_t
MemoryImage::loadI(ArrayId arr, int64_t index) const
{
    return static_cast<int64_t>(
        data[static_cast<size_t>(arr)][slot(arr, index, false)]);
}

void
MemoryImage::storeF(ArrayId arr, int64_t index, double v)
{
    data[static_cast<size_t>(arr)][slot(arr, index, true)] =
        std::bit_cast<uint64_t>(v);
}

void
MemoryImage::storeI(ArrayId arr, int64_t index, int64_t v)
{
    data[static_cast<size_t>(arr)][slot(arr, index, true)] =
        static_cast<uint64_t>(v);
}

void
MemoryImage::fillPattern(uint64_t seed)
{
    Rng rng(seed);
    for (ArrayId a = 0; a < table.size(); ++a) {
        const ArrayInfo &info = table[a];
        uint64_t *cells = data[static_cast<size_t>(a)].data() + kGuard;
        if (info.elemType == Type::F64) {
            // Small magnitudes keep every technique's arithmetic
            // exactly representable enough for bitwise comparison.
            for (int64_t i = 0; i < info.size; ++i)
                cells[i] = std::bit_cast<uint64_t>(
                    static_cast<double>(rng.range(-1024, 1024)) / 32.0);
        } else {
            for (int64_t i = 0; i < info.size; ++i)
                cells[i] =
                    static_cast<uint64_t>(rng.range(-4096, 4096));
        }
    }
}

std::string
MemoryImage::diff(const MemoryImage &other) const
{
    SV_ASSERT(table.size() == other.table.size(),
              "comparing images over different array tables");
    for (ArrayId a = 0; a < table.size(); ++a) {
        const ArrayInfo &info = table[a];
        if (info.synthesized)
            continue;
        const std::vector<uint64_t> &mine = data[static_cast<size_t>(a)];
        const std::vector<uint64_t> &theirs =
            other.data[static_cast<size_t>(a)];
        SV_ASSERT(mine.size() == theirs.size(),
                  "comparing images over different array tables");
        const uint64_t *lhs = mine.data() + kGuard;
        const uint64_t *rhs = theirs.data() + kGuard;
        size_t n = static_cast<size_t>(info.size);
        if (std::memcmp(lhs, rhs, n * sizeof(uint64_t)) == 0)
            continue;
        auto [l, r] = std::mismatch(lhs, lhs + n, rhs);
        return strfmt("%s[%lld]: %g vs %g", info.name.c_str(),
                      static_cast<long long>(l - lhs),
                      std::bit_cast<double>(*l),
                      std::bit_cast<double>(*r));
    }
    return "";
}

} // namespace selvec
