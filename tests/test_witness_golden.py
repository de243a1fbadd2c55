"""Golden witnesses for the public solvers on fixed seeded samples, and
golden hashes of the samplers' edge sets and of `mdim` output.

A change to any witness a solver returns, not only to beta, fails here.
Each witness is written as whitespace-separated labels; beta is its length.
The hashes pin the edge sets themselves, so a sampler change that keeps
every beta still fails. Every pinned `mdim` stdout is a row of
`CLI_SHA256`, keyed by its command line: `series`, `dist`, `constants`,
`c-curve`, the samplers and `mc` runs, byte for byte, the normality
statistics among them.
"""

import contextlib
import hashlib
import io
from itertools import combinations

import pytest

from helpers import bfs_partition
from mdim.cli import main
from mdim.generators import SeededRng, sample_gnp, sample_uniform_forest, sample_uniform_tree
from mdim.graph import ComponentKind, Graph, serialize_graph
from mdim.metric_dimension import (
    ComponentTooLargeError,
    ResolvingWitness,
    brute_force_beta,
    forest_beta,
    graph_beta,
    slater_tree_beta,
)

GNP_N = 2000
GNP_P = 0.9 / GNP_N
GNP_SEED = 7


def labels(text):
    return tuple(int(tok) for tok in text.split())


# uniform tree, n=300, SeededRng(seed, 0)
TREE_300 = {
    0: labels("""
        52 78 97 99 102 114 120 128 130 144 155 164 166 173 176 178 182 189 192 197 205
        207 212 215 229 232 233 239 242 248 253 254 266 268 274 277 280 286 288 298
    """),
    1: labels("""
        27 63 68 69 83 98 113 131 147 149 151 154 157 159 163 166 167 170 188 196 200
        201 206 226 227 231 237 239 244 252 256 257 266 271 273 275 279 281 282 285 291
        295 297
    """),
    2: labels("""
        53 62 63 109 115 116 124 131 135 138 147 151 175 179 181 200 204 205 213 215 218
        221 228 240 244 249 253 254 264 268 269 275 283 291 292 293 295 297
    """),
    3: labels("""
        28 92 107 116 120 129 130 137 138 139 142 143 150 158 159 171 172 177 179 200
        203 209 213 215 217 220 227 228 248 250 254 255 257 261 265 270 273 274 278 280
        281 282 285 291 292 297 298
    """),
    4: labels("""
        44 76 80 95 99 131 135 137 138 139 152 164 167 174 189 191 196 197 199 212 214
        220 222 224 231 240 241 247 251 255 257 259 262 264 268 270 284 291 292 294 295
    """),
}

# uniform forest, n=300, SeededRng(seed, 0)
FOREST_300 = {
    0: labels("""
        14 21 45 50 66 75 79 96 113 121 136 140 156 164 173 178 182 192 202 207 215 220
        225 229 230 234 235 236 240 243 245 246 252 261 262 263 264 269 272 280 296
    """),
    1: labels("""
        17 21 33 50 57 79 90 116 118 134 139 152 162 163 171 190 194 195 200 201 203 204
        211 215 218 230 231 239 243 244 248 254 256 258 262 270 272 273 281 284 286 289
        296
    """),
    2: labels("""
        29 57 64 72 82 90 100 117 131 140 154 164 174 176 180 182 183 191 196 200 203
        205 211 220 224 225 229 235 245 247 248 252 253 257 263 286 292 293 297
    """),
    3: labels("""
        8 29 44 66 91 118 120 131 133 136 141 166 168 180 183 189 195 196 197 199 201
        204 208 216 217 234 235 243 245 251 254 255 259 260 265 267 270 279 284 293 294
        295 299
    """),
    4: labels("""
        9 18 74 75 80 99 111 112 113 128 130 136 148 149 158 171 180 181 187 194 195 197
        203 207 209 211 212 217 222 227 229 230 236 242 243 246 263 267 268 269 270 278
        293
    """),
}

# G(2000, 0.9/n), SeededRng(7, stream); stream 34 holds a cyclic component of
# 6 vertices and stream 44 one of 10, both brute-forced
GNP_SOLVED = {
    34: labels("""
        1 2 3 4 6 7 8 9 10 11 12 13 14 20 21 23 25 27 28 31 32 33 34 35 36 38 40 41 42
        43 44 45 47 51 52 53 54 55 56 57 58 60 61 62 67 68 69 72 74 75 76 79 81 82 84 87
        89 90 92 94 95 97 98 99 101 102 103 105 106 107 108 110 111 113 114 115 116 117
        119 120 122 123 125 126 127 128 129 131 132 137 138 139 140 141 142 144 145 147
        148 149 150 151 152 153 155 157 160 161 164 165 166 169 170 171 172 173 174 175
        176 177 178 180 181 182 183 184 185 186 188 190 191 192 193 195 196 197 198 200
        201 206 207 208 210 211 212 214 216 217 218 220 224 225 226 228 229 231 232 233
        235 236 238 240 241 242 243 244 245 246 247 249 252 253 256 258 259 260 264 265
        266 267 268 269 270 271 272 273 275 277 278 279 280 281 286 287 292 293 294 295
        296 297 298 299 306 307 308 310 311 314 315 317 320 322 323 324 325 326 329 332
        335 336 338 339 340 341 342 343 344 345 346 349 350 352 354 358 360 361 364 368
        369 370 371 372 373 374 375 380 381 382 383 385 386 387 388 391 392 393 395 397
        398 399 400 401 402 403 404 406 407 408 410 411 412 414 415 416 418 419 421 422
        424 426 427 428 429 434 435 439 440 441 443 444 445 446 448 449 451 452 456 457
        458 460 461 463 465 468 469 472 473 477 480 481 483 484 485 486 487 488 491 492
        493 494 495 496 498 500 501 503 505 506 508 513 514 517 518 520 521 523 525 526
        527 528 529 531 532 533 534 535 537 539 540 542 544 545 546 547 549 551 552 554
        555 556 559 561 562 563 564 566 567 569 570 571 573 574 575 577 579 580 582 587
        589 590 593 594 595 598 599 600 601 602 603 605 606 607 609 612 617 618 619 620
        621 622 623 625 627 629 631 633 634 635 638 639 641 642 643 645 646 649 650 651
        653 655 656 657 658 659 660 662 664 667 668 669 670 671 672 673 675 676 677 678
        680 683 685 687 688 689 690 693 694 695 696 697 698 699 701 702 703 704 706 708
        710 711 712 713 714 716 718 720 721 723 726 728 730 733 734 736 738 739 742 743
        746 747 748 749 751 752 754 756 757 758 759 760 761 763 764 766 767 768 770 771
        776 777 778 779 780 781 782 785 786 787 789 791 792 795 796 797 798 799 800 802
        804 806 807 809 810 812 813 815 817 819 823 827 828 829 830 831 833 834 835 837
        839 841 844 845 847 848 849 852 853 854 855 858 861 862 866 868 869 871 872 877
        878 881 882 883 885 886 887 889 890 891 892 893 897 900 901 902 903 905 907 909
        910 911 913 914 919 920 921 923 924 926 928 932 935 937 940 941 942 943 945 946
        947 948 950 951 952 956 957 958 959 961 962 963 966 967 969 970 973 980 982 985
        986 992 996 997 998 999 1001 1002 1003 1006 1008 1010 1011 1015 1016 1017 1020
        1021 1023 1025 1027 1029 1032 1034 1036 1037 1038 1039 1040 1041 1043 1045 1047
        1048 1049 1050 1055 1056 1058 1059 1060 1061 1064 1066 1069 1070 1071 1074 1075
        1076 1078 1080 1084 1089 1090 1091 1095 1096 1099 1100 1103 1104 1105 1108 1109
        1110 1111 1112 1115 1118 1121 1125 1126 1127 1130 1131 1133 1134 1135 1137 1138
        1139 1140 1142 1144 1145 1149 1150 1151 1152 1154 1156 1157 1158 1160 1161 1162
        1163 1165 1166 1167 1168 1169 1170 1171 1174 1175 1176 1177 1181 1183 1185 1187
        1189 1190 1191 1192 1194 1195 1197 1198 1199 1203 1204 1205 1207 1208 1209 1210
        1211 1213 1214 1215 1217 1218 1219 1221 1222 1224 1225 1227 1228 1234 1236 1238
        1241 1242 1243 1244 1246 1248 1249 1251 1252 1254 1256 1258 1260 1261 1262 1264
        1266 1267 1270 1273 1275 1276 1278 1280 1281 1282 1283 1284 1285 1287 1288 1289
        1290 1291 1292 1293 1294 1295 1296 1299 1300 1301 1302 1309 1310 1311 1312 1313
        1317 1319 1320 1322 1325 1326 1327 1329 1330 1331 1332 1333 1335 1336 1337 1338
        1340 1343 1346 1347 1348 1352 1353 1356 1357 1361 1362 1363 1364 1367 1368 1373
        1374 1375 1376 1380 1381 1385 1388 1389 1390 1391 1393 1394 1396 1398 1399 1400
        1401 1403 1406 1407 1408 1409 1412 1414 1415 1416 1417 1418 1420 1422 1424 1427
        1429 1430 1432 1433 1435 1436 1437 1438 1439 1440 1441 1442 1443 1444 1447 1449
        1450 1451 1453 1454 1455 1458 1461 1462 1464 1468 1469 1470 1474 1477 1478 1479
        1481 1482 1485 1492 1495 1496 1497 1498 1499 1501 1502 1504 1505 1508 1509 1510
        1511 1513 1518 1520 1522 1524 1525 1526 1527 1528 1531 1534 1537 1539 1542 1545
        1546 1547 1549 1550 1551 1552 1555 1557 1559 1560 1561 1562 1563 1566 1568 1570
        1574 1576 1577 1578 1580 1582 1583 1586 1587 1589 1590 1591 1594 1596 1597 1598
        1600 1601 1602 1604 1605 1609 1612 1615 1618 1620 1621 1623 1624 1627 1628 1631
        1632 1633 1634 1635 1637 1639 1640 1641 1646 1647 1648 1651 1652 1654 1655 1656
        1657 1660 1661 1662 1665 1667 1670 1672 1674 1677 1679 1683 1684 1686 1688 1689
        1694 1696 1698 1699 1700 1701 1702 1703 1706 1707 1712 1714 1715 1716 1718 1719
        1721 1722 1723 1726 1729 1730 1731 1732 1734 1737 1738 1741 1742 1743 1744 1745
        1746 1747 1750 1751 1752 1753 1754 1757 1758 1760 1763 1766 1769 1770 1771 1777
        1778 1781 1783 1785 1787 1788 1789 1798 1799 1801 1803 1804 1805 1813 1815 1818
        1825 1826 1829 1832 1833 1835 1836 1838 1839 1840 1842 1843 1846 1847 1849 1850
        1851 1852 1853 1854 1857 1858 1860 1861 1864 1865 1868 1870 1874 1875 1876 1877
        1878 1879 1880 1881 1882 1883 1884 1885 1888 1890 1892 1894 1895 1896 1897 1898
        1900 1901 1903 1905 1906 1907 1910 1914 1916 1917 1918 1919 1920 1922 1924 1925
        1926 1927 1928 1935 1936 1937 1940 1941 1942 1946 1947 1951 1954 1957 1958 1962
        1963 1965 1966 1967 1968 1969 1972 1974 1975 1976 1979 1982 1984 1987 1989 1990
        1991 1992 1993 1996 1997
    """),
    44: labels("""
        0 2 3 4 5 9 10 12 14 16 17 18 19 21 24 26 28 30 32 33 34 37 41 42 43 44 45 49 50
        51 54 55 57 60 61 64 67 70 72 73 74 75 79 83 85 87 90 91 92 94 97 98 100 101 103
        104 106 107 108 110 112 113 114 116 117 119 120 122 124 125 126 127 128 129 130
        131 132 133 134 135 136 138 139 140 141 142 143 145 148 149 152 154 155 157 158
        159 160 161 162 163 164 165 167 168 169 171 173 174 175 177 178 179 182 184 185
        187 189 190 191 192 193 195 198 199 201 204 205 206 207 208 212 213 214 215 216
        221 222 223 226 228 231 232 234 235 237 238 239 240 241 242 244 247 249 250 252
        253 254 257 258 259 263 265 266 268 270 271 272 274 275 277 278 279 280 284 287
        288 289 290 291 293 295 297 298 299 300 301 302 304 309 310 311 312 313 317 320
        321 322 325 326 329 330 332 333 335 338 343 345 348 352 353 354 355 356 359 360
        362 364 365 369 370 371 372 373 376 377 378 379 380 384 385 386 387 388 390 392
        393 394 395 396 397 398 399 401 402 403 404 405 406 407 408 409 410 411 412 415
        416 417 418 419 420 423 426 427 429 430 432 433 434 436 439 440 441 442 443 444
        445 448 450 451 453 454 455 456 457 458 459 461 462 464 465 468 469 470 471 474
        476 477 478 479 480 481 484 485 487 488 489 490 491 493 494 495 497 498 500 501
        503 504 506 509 510 512 513 514 515 516 517 518 519 520 522 524 525 526 529 530
        531 533 534 536 538 540 541 544 546 547 548 550 551 552 553 558 559 560 561 562
        563 565 567 569 570 577 578 580 581 582 583 584 585 587 589 590 591 592 593 595
        597 598 599 601 602 603 605 607 611 612 613 615 617 618 619 620 623 624 625 626
        627 628 629 630 634 636 637 639 640 642 645 646 647 648 649 650 651 652 653 654
        656 658 659 661 662 663 664 665 666 667 668 670 671 672 673 675 676 678 679 680
        685 686 688 689 690 692 694 695 698 699 700 703 704 705 706 707 708 711 714 715
        716 717 718 719 722 723 726 729 730 731 733 735 737 738 739 741 742 743 745 748
        749 750 752 753 756 757 758 760 761 762 765 766 767 769 770 772 774 775 776 777
        778 779 780 781 782 783 784 787 789 793 797 800 804 807 808 811 812 814 818 820
        821 823 831 832 833 834 835 836 837 840 842 843 845 848 851 855 856 857 859 862
        863 866 868 869 870 872 876 877 879 880 883 884 888 889 894 895 897 899 903 906
        907 909 910 911 912 915 918 920 921 922 923 925 926 927 929 930 931 933 934 935
        938 939 940 941 942 943 944 945 946 950 951 952 953 955 956 958 960 963 964 965
        966 967 968 969 970 971 972 974 975 976 977 978 979 981 987 988 989 990 991 993
        995 996 997 1002 1003 1006 1010 1012 1015 1017 1020 1023 1025 1027 1028 1030
        1031 1032 1033 1034 1035 1037 1038 1039 1042 1043 1044 1046 1047 1049 1050 1051
        1054 1055 1056 1057 1058 1059 1065 1066 1068 1069 1071 1074 1075 1076 1077 1078
        1079 1080 1082 1083 1089 1090 1091 1094 1095 1096 1098 1100 1101 1102 1105 1107
        1109 1110 1112 1114 1117 1119 1121 1122 1123 1126 1128 1129 1130 1131 1133 1134
        1135 1136 1137 1138 1139 1141 1143 1144 1145 1146 1147 1148 1151 1152 1153 1155
        1157 1158 1159 1161 1162 1164 1167 1171 1175 1177 1178 1179 1183 1184 1185 1187
        1188 1189 1190 1191 1193 1194 1195 1196 1197 1198 1199 1200 1201 1202 1203 1204
        1205 1206 1207 1208 1211 1216 1217 1221 1222 1223 1225 1226 1228 1229 1230 1231
        1232 1233 1235 1238 1239 1240 1242 1247 1248 1249 1250 1251 1254 1255 1256 1257
        1258 1259 1260 1263 1264 1266 1267 1268 1269 1270 1273 1276 1277 1278 1279 1286
        1287 1288 1289 1290 1291 1293 1294 1297 1302 1304 1305 1307 1309 1310 1312 1315
        1317 1319 1320 1321 1324 1325 1326 1328 1330 1331 1332 1333 1335 1336 1337 1338
        1339 1342 1343 1347 1348 1349 1350 1351 1354 1355 1356 1357 1359 1360 1361 1362
        1365 1368 1369 1371 1373 1374 1375 1378 1381 1382 1385 1387 1389 1390 1391 1393
        1394 1395 1399 1401 1402 1405 1407 1409 1410 1411 1412 1413 1415 1417 1418 1420
        1423 1424 1425 1426 1427 1428 1429 1433 1437 1438 1440 1441 1442 1443 1444 1445
        1447 1451 1453 1454 1455 1460 1463 1469 1470 1472 1474 1475 1477 1478 1480 1484
        1485 1489 1490 1494 1496 1500 1501 1502 1503 1505 1509 1510 1514 1515 1517 1518
        1519 1520 1521 1522 1523 1524 1525 1526 1527 1529 1530 1533 1534 1536 1537 1539
        1541 1542 1543 1544 1545 1548 1554 1555 1557 1558 1559 1563 1564 1565 1566 1571
        1573 1576 1577 1580 1581 1582 1583 1584 1588 1589 1592 1593 1596 1598 1599 1600
        1601 1604 1607 1608 1612 1616 1617 1618 1620 1624 1625 1628 1630 1632 1636 1642
        1643 1645 1646 1648 1649 1650 1651 1652 1657 1660 1661 1662 1663 1664 1666 1668
        1669 1670 1671 1673 1674 1676 1677 1678 1679 1681 1684 1685 1686 1687 1688 1693
        1697 1698 1700 1702 1704 1705 1707 1708 1711 1713 1714 1715 1716 1719 1721 1725
        1726 1728 1731 1733 1734 1735 1736 1737 1738 1740 1741 1745 1746 1750 1751 1755
        1760 1761 1762 1763 1764 1770 1772 1773 1775 1778 1779 1780 1782 1787 1788 1791
        1792 1794 1796 1797 1800 1801 1802 1803 1805 1806 1810 1811 1812 1814 1815 1816
        1820 1822 1823 1824 1827 1829 1831 1835 1837 1840 1841 1843 1844 1845 1846 1847
        1848 1849 1851 1852 1856 1857 1858 1860 1861 1863 1866 1867 1869 1870 1872 1874
        1875 1876 1878 1880 1881 1882 1883 1884 1887 1888 1889 1897 1899 1904 1905 1907
        1908 1910 1912 1913 1914 1916 1920 1921 1922 1926 1927 1928 1929 1931 1933 1934
        1935 1936 1937 1942 1944 1946 1947 1949 1950 1953 1957 1959 1962 1964 1965 1966
        1967 1970 1971 1975 1978 1979 1982 1984 1985 1987 1989 1990 1993 1996
    """),
}

# G(2000, 0.9/n), SeededRng(7, 0): the first oversize non-tree component,
# as (stream, size, edges); it is unicyclic
GNP_EXCLUDED = (0, 64, 64)

SAMPLE_SEED = 7

# sha256 of serialize_graph(sample_uniform_forest(n)), SeededRng(7, stream), streams 0-4
FOREST_SHA256 = {
    2: (
        "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834",
        "4516f6eaaa675488778d6ca333df14bc68c27fb7d7b8015073220d4571aa9c51",
        "4516f6eaaa675488778d6ca333df14bc68c27fb7d7b8015073220d4571aa9c51",
        "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834",
        "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834",
    ),
    3: (
        "9e547e492755acdcf9a6284395b73b38d75006806dc1cc72719cc0b280b614a3",
        "7ed323b1f51ba456ca5edd51361547690f64b0a8d56142b3520d02c9db2bec63",
        "f447e635ef60d86f4591ef150e99d027d79600a624955da19c447d2e7f957fc8",
        "5a4f9664266d45dc18b7e2925ec6d3c0d5703c1a7b93632fa4b54b5ec6d5de56",
        "9e547e492755acdcf9a6284395b73b38d75006806dc1cc72719cc0b280b614a3",
    ),
    50: (
        "bd86797ec6e6c12a09adc002428a9fdeb2246174cbf2ee36be4a986f59a006c3",
        "c2b791744458defad6801954374425839fa10afe8216c50a6cc690052c5abab9",
        "fadc139ad5ca62a2fb25d1309ee1c1d016cb874d96b2066b17da0f322d7dc8fc",
        "cff6ad04265c5f65ac4ab56c30666969738de227d3a57dc7df49196c513195f5",
        "aa7b079276ade0449d9c8413574b1a770fe458cc487eb017a23a147454720b1e",
    ),
    500: (
        "22082b9b44cfeb1a991cb104f6b8ea30810c494332d6448c213993b2b8cbf0a4",
        "36999944274d17e821b7a71972eeff7e729ca807860e7b2a8b4d1526a8666c2f",
        "1816b01f5748c6985e0d7d6ddf1619f302116260762fa83d607e4fed58bcca51",
        "4a36004d17e7c6b5c4d6e6e74bc3373388040bd8510292de45291d33e47eb3c5",
        "924f076a861cb8667df73d54e1214d324dcb25e79974a98b2b6624149d3df7f7",
    ),
    1000: (  # streams 0-2 only
        "f57023dbda15002b29a38ce07e8706bc3a1e2b51b0b264e20893b02d1c0193b9",
        "81375c309290ee8507ff13d88c025c7b7499004e6b1ff55641986a549c54fd67",
        "9f86b6552936e668b593df6a89d257dad84ea64ce1fb9eb66c0650beb56b56df",
    ),
}

# the same for sample_uniform_tree(2): the single edge on every stream
TREE_2_SHA256 = "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834"

# sha256 of serialize_graph(sample_uniform_tree(1000)), SeededRng(7, stream), streams 0-2
TREE_1000_SHA256 = (
    "ddebd6a8719405b5450df76bdff6242e30fdc5110ae518fc37493c29690e6a41",
    "8a6f06161333e59c13b035f000f446a748f319d819b450dc0bf56527fda348eb",
    "5a7afb13a2d1ae4ffd5369e670057010d94db1ddd8bc25eadcb90319bfd1a115",
)

# sha256 of serialize_graph(sample_gnp(n, p)), SeededRng(7, stream), streams
# 0-2; p = 0.8 at n = 60 draws the absent pairs (m > C(n,2)/2)
GNP_SHA256 = {
    (10_000, 0.5 / 10_000): (
        "de0ce2cb4e04f9e5e6d18ff3ad32429883c809f269ceaffb2a4be44b710368c3",
        "0bb2f9e26403cdd94fc4565af3618ef33df79d58f08cb3c2c67bdab26321090e",
        "258c695ad661197561721ac0ec90b9a617fcd6863723ebfb9452af00c4ec6d76",
    ),
    (4000, 0.9 / 4000): (
        "2b370548da17ce8f0b519fc962d9074ea287914f1ef74802aa1b7d586659abe3",
        "0a9da0295d2224bb7a2abe324bd75b383b9565dece689aee5b3d0e63c348ecf6",
        "e4758571a8b39ade4596f6f2cc46b80298d38d020a1deb98d6e997aff7b0ddb6",
    ),
    (60, 0.8): (
        "47e4d16735a802ffefc07726b1c4615289b80918b927d730b1422639ed84d5ca",
        "e8bbbad338d616e9e8b2cf73087dc06eb4226e27a1993ffcaf1cc21072db4cb9",
        "535b1767e8a048fd54b8b4b1e113c21217b6aab2117f69beca376a3ff9067518",
    ),
}


@pytest.mark.parametrize("seed", sorted(TREE_300))
def test_slater_tree_beta(seed):
    tree = sample_uniform_tree(300, SeededRng(seed, 0).generator())
    expected = TREE_300[seed]
    assert slater_tree_beta(tree) == ResolvingWitness(len(expected), expected)


@pytest.mark.parametrize("seed", sorted(FOREST_300))
def test_forest_beta(seed):
    forest = sample_uniform_forest(300, SeededRng(seed, 0).generator())
    expected = FOREST_300[seed]
    assert forest_beta(forest) == ResolvingWitness(len(expected), expected)


@pytest.mark.parametrize("stream", sorted(GNP_SOLVED))
def test_graph_beta(stream):
    g = sample_gnp(GNP_N, GNP_P, SeededRng(GNP_SEED, stream).generator())
    expected = GNP_SOLVED[stream]
    assert graph_beta(g) == ResolvingWitness(len(expected), expected)


def test_graph_beta_exclusion():
    stream, size, edges = GNP_EXCLUDED
    g = sample_gnp(GNP_N, GNP_P, SeededRng(GNP_SEED, stream).generator())
    with pytest.raises(ComponentTooLargeError) as info:
        graph_beta(g)
    assert (info.value.size, info.value.edges) == (size, edges)
    _, components, kinds = bfs_partition(g)
    oversize = [c for c, k in zip(components, kinds) if k is ComponentKind.NON_TREE and len(c) > 12]
    assert sum(g.degree(v) for v in oversize[0]) // 2 == edges


def all_small_graphs(max_n):
    """Every labelled graph on 1..max_n vertices, edges in lexicographic order."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield n, [p for i, p in enumerate(pairs) if mask >> i & 1]


def disjoint_cliques(sizes):
    """K_k for each k in sizes, on consecutive label blocks (K_1 is isolated)."""
    edges, base = [], 0
    for k in sizes:
        edges += [(base + i, base + j) for i, j in combinations(range(k), 2)]
        base += k
    return base, edges


# sha256 over "n edges beta witness" lines of brute_force_beta on every
# labelled graph with <= 5 vertices (1,099 graphs), then on the disconnected
# unions 6 K_2, 4 K_3, 3 K_4, 2 K_6 and K_2 plus 10 isolated vertices
BRUTE_SHA256 = "84d8c331492bd9d8ddb8c407e734bf2ef8dc7965645aab48b992aa4f87835a2e"
BRUTE_UNIONS = ([2] * 6, [3] * 4, [4] * 3, [6] * 2, [2] + [1] * 10)


def test_brute_force_witnesses():
    cases = list(all_small_graphs(5)) + [disjoint_cliques(s) for s in BRUTE_UNIONS]
    assert len(cases) == 1099 + len(BRUTE_UNIONS)
    h = hashlib.sha256()
    for n, edges in cases:
        res = brute_force_beta(Graph.from_edges(n, edges))
        h.update(f"{n} {edges} {res.beta} {list(res.witness)}\n".encode())
    assert h.hexdigest() == BRUTE_SHA256


def sha256_of(g):
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(FOREST_SHA256))
def test_sample_uniform_forest_edges(n):
    got = tuple(
        sha256_of(sample_uniform_forest(n, SeededRng(SAMPLE_SEED, stream).generator()))
        for stream in range(len(FOREST_SHA256[n]))
    )
    assert got == FOREST_SHA256[n]


def test_sample_uniform_tree_two_vertices():
    for stream in range(5):
        g = sample_uniform_tree(2, SeededRng(SAMPLE_SEED, stream).generator())
        assert sha256_of(g) == TREE_2_SHA256


def test_sample_uniform_tree_edges():
    got = tuple(
        sha256_of(sample_uniform_tree(1000, SeededRng(SAMPLE_SEED, stream).generator()))
        for stream in range(3)
    )
    assert got == TREE_1000_SHA256


@pytest.mark.parametrize("n,p", sorted(GNP_SHA256))
def test_sample_gnp_edges(n, p):
    got = tuple(
        sha256_of(sample_gnp(n, p, SeededRng(SAMPLE_SEED, stream).generator()))
        for stream in range(3)
    )
    assert got == GNP_SHA256[n, p]


# sha256 of the stdout of each `mdim` command line. A digest pins every
# printed digit, so it also pins these facts:
# - `constants` prints rho(1) = 1/(e - 1), rho'(1), rho''(1), the R values, mu
#   and sigma^2;
# - `c-curve` prints a header and 100 rows, c = 0, 0.01, ..., 0.99;
# - G(4000, 0.9/n) at seed 4 excludes 31 of 100 replicates, and G(400, 0.9/n)
#   at the default seed 7 excludes 7 of 20;
# - each `mc` run of the last group prints ks_statistic, skewness and
#   excess_kurtosis.
CLI_SHA256 = {
    # the exact series at orders 24 and 45: any change to an exact rational shows
    "series --order 24 --which G":
        "8487a694434eb8ea49818e4728d01d41d82abbb0ec31242f6fb6a72b28a26ffb",
    "series --order 24 --which G --at-y":
        "aaa38a07a8ead233c2edde8c98ee521e6d7cc81542b9e76e77ad5e42f8142222",
    "series --order 24 --which P":
        "fa9a380a87851e2727e33a955ba05a416da0b52f4da69820f7924c4839bb78a7",
    "series --order 24 --which P --at-y":
        "089fc96f23a35cf6d80cc976340a3ca2756b02ccaf12ae0afdca5e48e10581d7",
    "series --order 24 --which S":
        "682fe99c161a675d1936f37999986b1d325f72db36056435f5102475cf5c329d",
    "series --order 24 --which S --at-y":
        "bf8a891f5a4070285a742f4f380e77f843a685f7aa383a4d785a79d5c717cf66",
    "series --order 24 --which T":
        "2935645ff097c2530681fd1fde5b75f452ad864a5acdfd48477b1aa10308e1ac",
    "series --order 24 --which T --at-y":
        "642ac896f7853fc1f64f295f8c4681f6dce2fdaa5b6f032f427068fd88977a93",
    "series --order 24 --which U":
        "f6cb6836b7535a6e5727d1a9f0914a6239dac93ca3c0b14ea56e02cb1b7f12af",
    "series --order 24 --which U --at-y":
        "74e42dcf3c0df35d8585a8e90f559c029847aabca466dc5405ef43977aa144df",
    "series --order 24 --which V":
        "24b634f86134e39a28c4cecc67399cfa6d8c87d28aa3aaa42d37649acac79ec4",
    "series --order 24 --which V --at-y":
        "2cbc1a7a9d5782cbde40330b7011a98d50f37212aee3b1170578c6822cc659cc",
    "series --order 45 --which T":
        "d23ac8166c8576aa51c64011f484468e5bcb01b8b5621654651a219e6eed5549",
    "series --order 45 --which G":
        "e53f381728c264b87fcbecc570af4664fa69a532a22f18844b9611426f1837bb",
    "series --order 45 --which P":
        "c068f0ea83ac5c26aedddcb94334e4424bec1cec7d24a92a194a758e439a874e",
    "series --order 45 --which U":
        "cfe6b711ab5d068697d59b25f7db4216e432c188fe265ca59b36925a8bea1c22",
    "series --order 45 --which V":
        "53f37399b196c91eb841b62cfa15d1a66a3207ef2b3a94e66dd7a2a9d7f99679",
    "series --order 45 --which S":
        "96608ed12e25310ae073e2b85468127be55380edcc7add6a0bf1ab0c614da247",
    "series --order 45 --which T --at-y":
        "9917e582ce3cce1f2aa645db1c5fb64d676daeb5a78c87a44cda99aa69e62f83",
    "dist --model tree --n 45":
        "ab9cd52442bf89b3a619a6935cd18b122a41f4e94f1c400045b7c63b32503463",
    "dist --model forest --n 45":
        "cd99fd84721db59aca3f72828af6b90e4d10ed12167b9016b7f38836b38b479b",
    "constants":
        "6b53631b462faa31a252cf2f03d7797b33941caafbb427683c36b5c85b401715",
    "c-curve":
        "aeae03282d65360b652ccd75db02de9042905250bbfe239aa80c9c44fe3e1833",
    # the whole count table at `MAX_FOREST_VERTICES`, with the recurrence check at
    # m = 2000, and a Pruefer decode at `MAX_VERTICES`
    "sample-forest --n 2000 --seed 3 --stream 1":
        "d4b47774aec6391043c90445b954ab7134fd58ea63d8247cf2356dacbfaf3caf",
    "sample-tree --n 1000000 --seed 7":
        "15e2fe0af2f5bdab438f7be554fbf57436909990bdcd5e7aaa5f4a8b5a316139",
    # G(n, c/n); at c = 0.9 small cyclic components go to brute force. The n = 400
    # run is solved in two chunks of 10 replicates: the same bytes as one at a time
    "mc --model gnp --c 0.5 --n 10000 --replicates 30 --format json --seed 4":
        "ce72780a8b1b6209aa6dfa288d75145b6396e836ec3a2566e895b1b275796c9b",
    "mc --model gnp --c 0.9 --n 4000 --replicates 100 --format json --seed 4":
        "67dbc6ad0bae34348737ad34547f183ae7051d0d1e13dfaf86fa85b2e6db8559",
    "mc --model gnp --c 0.9 --n 400 --replicates 20 --format json":
        "01dc9d26d5b5590a9724e94eb18bedf2b26af7e59510ac16f57aa3669e6475a6",
    # the uniform models, sampled a chunk at a time with one Pruefer decode a chunk,
    # each chunk solved as one union: the same bytes as one tree at a time. At
    # n = 6 the isolated-vertex rule applies per block (682 forests a chunk); at
    # n = 1 every block is one vertex
    "mc --model uniform-tree --n 1000 --replicates 50 --format json --seed 4":
        "0bddc43a3929a5cd2383b4468f5c53096dafe78bbe0cbaf9c4ca019d1009d9a2",
    "mc --model uniform-forest --n 500 --replicates 50 --format json --seed 4":
        "0a1eec30e9e6943ac6117ae3fa70dc46411532c1a34e94c942b3e3c2db669545",
    "mc --model uniform-tree --n 1000 --replicates 800 --seed 5 --format json":
        "df70a2f8871ac45b176ce06213a1d07e450c9ded8ee6bbf273b0af502a095b2a",
    "mc --model uniform-forest --n 500 --replicates 500 --seed 5 --format json":
        "afcd20307bc2627f5948886a4d55353ed53abb0a48e3648fe8c20b0ea0da7c58",
    "mc --model uniform-forest --n 6 --replicates 2000 --seed 5 --format json":
        "d938b14bdfcbcfac2a88a6cc624c89e9a3274cc82ed5db3de9b8a9fbb75a870b",
    "mc --model uniform-tree --n 1 --replicates 150 --seed 5 --format json":
        "242b2dab53ad9c4a6c6ceaf2b36d17a4d64a64bf4fe33960a23e9323e5c44609",
    # the normality statistics. Phi computed as 0.5 * erfc(-z / sqrt(2)) instead of
    # Cephes' ndtr changes the printed ks_statistic at tree seeds 1, 3 and 9, and in
    # the gnp run
    "mc --model uniform-tree --n 100 --replicates 300 --seed 0":
        "b1be542eeb596af2e20a1c9f8a101530a6b0568e2e43210bae1ef758004f31da",
    "mc --model uniform-tree --n 100 --replicates 300 --seed 1":
        "11d1af5895b235ea8183852dc5b688fab2a215725df18d7b76ffc6c36480f8af",
    "mc --model uniform-tree --n 100 --replicates 300 --seed 2":
        "9642a47cba180027624a0ab6e7edc999ff74297d259e1f807c0c5f6b01de3a56",
    "mc --model uniform-tree --n 100 --replicates 300 --seed 3":
        "38d47dfaf755d5ac47237644867c867de29ee3dffed86aa8e1f76734db5e8f96",
    "mc --model uniform-tree --n 100 --replicates 300 --seed 4":
        "3ebdeacaf6e6eef95766930841a6f42f207340efec4c114c2c992c3a7bb9f1b5",
    "mc --model uniform-tree --n 100 --replicates 300 --seed 5":
        "c25d0b14579f5ffaf4b75fe21e2aa999a690f54be0b6dce294fea456fda23aa1",
    "mc --model uniform-tree --n 100 --replicates 300 --seed 6":
        "b818f1f36adaf124dcf83bfa131c3d152c42f3c3b9e788139d79cd85fa67115c",
    "mc --model uniform-tree --n 100 --replicates 300 --seed 7":
        "725f8f07f3378163f74704cb5e6024617bd2f35326df28fc2b356a0fb8dec307",
    "mc --model uniform-tree --n 100 --replicates 300 --seed 8":
        "4748e75743c91a0129d1f421bf942755f0dbb87fbb9e99ad3ee9455b154f0207",
    "mc --model uniform-tree --n 100 --replicates 300 --seed 9":
        "5478226edaa3b826f28e16f0ae62c1a1d4df69a27a2f0b0e563a62b9cb317e50",
    "mc --model uniform-forest --n 100 --replicates 200 --format json --seed 4":
        "fb82be3c5269d3572c7504510857931001e28127cd1699ee84ffbe299b95ff73",
    "mc --model gnp --c 0.5 --n 1000 --replicates 200 --format json --seed 4":
        "fff412a5f6a35700b43998219ceb11ab191e947cced3a6c0866a27674a67e644",
}

# sha256 of the stdouts of `mdim dist --model M --n N`, concatenated over N = 1..20
DIST_1_TO_20_SHA256 = {
    "tree": "8ae75d4ab69eec5754d062aab49f88bd20e096209bbc2c261b137268758ad20f",
    "forest": "383b19fbe26eff39c7aba86985955b441a83d1749e8b8794b28fbbc5d9f4cbd2",
}


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", list(CLI_SHA256))
def test_cli_output(argv):
    got = hashlib.sha256(cli_stdout(*argv.split()).encode()).hexdigest()
    assert got == CLI_SHA256[argv]


@pytest.mark.parametrize("model", sorted(DIST_1_TO_20_SHA256))
def test_dist_output(model):
    text = "".join(cli_stdout("dist", "--model", model, "--n", str(n)) for n in range(1, 21))
    assert hashlib.sha256(text.encode()).hexdigest() == DIST_1_TO_20_SHA256[model]
