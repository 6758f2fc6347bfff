#include "support/stats.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/logging.hh"

namespace msq {

void
ResultTable::setHeader(std::vector<std::string> names)
{
    if (!cells.empty())
        panic("ResultTable::setHeader called after rows were added");
    header = std::move(names);
}

void
ResultTable::beginRow()
{
    if (!cells.empty() && cells.back().size() != header.size())
        panic("ResultTable: previous row has " +
              std::to_string(cells.back().size()) + " cells, expected " +
              std::to_string(header.size()));
    cells.emplace_back();
}

void
ResultTable::addCell(const std::string &value)
{
    if (cells.empty())
        panic("ResultTable::addCell before beginRow");
    cells.back().push_back(value);
}

void
ResultTable::addCell(long long value)
{
    addCell(std::to_string(value));
}

void
ResultTable::addCell(unsigned long long value)
{
    addCell(std::to_string(value));
}

void
ResultTable::addCell(double value, int precision)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << value;
    addCell(ss.str());
}

void
ResultTable::printAscii(std::ostream &os) const
{
    std::vector<size_t> widths(header.size(), 0);
    for (size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : cells)
        for (size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    os << "== " << title_ << " ==\n";
    auto print_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << row[c];
        }
        os << "\n";
    };
    print_row(header);
    std::string rule;
    for (size_t c = 0; c < header.size(); ++c)
        rule += std::string(widths[c], '-') + "  ";
    os << rule << "\n";
    for (const auto &row : cells)
        print_row(row);
}

} // namespace msq
