// ASCII table rendering and float formatting for the paper-claims ledger
// and the examples.
#pragma once

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace salo {

/// Simple column-aligned ASCII table. Rows are vectors of pre-formatted
/// strings; the first row added is treated as the header.
class AsciiTable {
public:
    explicit AsciiTable(std::vector<std::string> header) : header_(std::move(header)) {}

    void add_row(std::vector<std::string> row) {
        SALO_EXPECTS(row.size() == header_.size());
        rows_.push_back(std::move(row));
    }

    /// Render the table to a string with | separators and a rule under the
    /// header, e.g. for embedding in markdown-ish console output.
    std::string str() const {
        std::vector<std::size_t> width(header_.size(), 0);
        auto grow = [&](const std::vector<std::string>& row) {
            for (std::size_t c = 0; c < row.size(); ++c)
                width[c] = std::max(width[c], row[c].size());
        };
        grow(header_);
        for (const auto& r : rows_) grow(r);

        std::ostringstream os;
        auto emit = [&](const std::vector<std::string>& row) {
            os << "|";
            for (std::size_t c = 0; c < row.size(); ++c)
                os << " " << std::left << std::setw(static_cast<int>(width[c])) << row[c] << " |";
            os << "\n";
        };
        emit(header_);
        os << "|";
        for (std::size_t c = 0; c < header_.size(); ++c)
            os << std::string(width[c] + 2, '-') << "|";
        os << "\n";
        for (const auto& r : rows_) emit(r);
        return os.str();
    }

    void print() const { std::cout << str(); }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Fixed-point float formatting with `precision` decimals.
inline std::string fmt(double v, int precision = 2) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

}  // namespace salo
